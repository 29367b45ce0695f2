(** Traversal passes: the compile-time schedule of every traversal and
    fallback body, run last by {!Compiler.compile} (DESIGN.md, "Staged
    traversals").  The runtime executes the recorded
    {!Traversal_spec.pass} list as written.

    - A {b pair-local statement} (edge-parallel traversals only) reads,
      and writes a row, constant on one side's (etype, endpoint) pairs:
      an assign of a pair-constant value, or an accumulation whose
      upstream gradients are already summed over those pairs.
    - A {b hoisted reduction} is a maximal [Inner]/[Linear]/[Linear_t] of
      a swept statement that is constant on one side's pairs, holds no
      constant or opaque call, and reads nothing its pass writes.
    - A pass {b splits} before a statement that reads a compact row the
      sweep accumulates per edge, and wherever the pair loops and the
      sweep would share a buffer (or weight gradient) that either writes,
      except compact rows the pair loops write and a later swept
      statement only reads.
    - A sweep is {b parallel-safe} when every row it writes belongs to
      the iteration's destination, every name it both writes and reads
      is read only there, and its weight-gradient statements may run
      after its other statements: they read no register local, and each
      row they read is unwritten by the sweep or an edge row only earlier
      statements write. *)

val of_body :
  lookup:(string -> Materialization.space option) ->
  locals:string list ->
  fallback:bool ->
  Traversal_spec.strategy ->
  Inter_ir.stmt list ->
  Traversal_spec.pass list
(** The passes of one body.  [lookup] gives a name's row space, [None]
    for a register local; [locals] are register locals too.  A [fallback]
    body is one pass with no pair-local statement. *)

val record : Plan.t -> Plan.t
(** Fill in the passes of every traversal and fallback step, in fused
    groups too, looking names up in [Plan.spaces] ([`Edge] scope first),
    then the input declarations.  Hand-built plans call it before
    [Exec.run_plan] runs them. *)
