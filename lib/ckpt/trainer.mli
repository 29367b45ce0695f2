(** Checkpointing training driver: fit / resume over a {!Hector_runtime.Session}.

    The resume guarantee: a run interrupted at step [k] and resumed from
    its checkpoint produces the {e same} losses and weights (≤ 1e-6, in
    practice bitwise) as one that never stopped.  It holds because (1)
    checkpoints serialize parameters as their exact float64 bits, (2)
    {!resume} rebuilds the session from the same seed — regenerating the
    identical inputs the original run drew — and then restores the
    parameters by value ({!Session.set_weights}), and (3) training itself
    is deterministic. *)

module Session = Hector_runtime.Session

type result = {
  session : Session.t;  (** the live session after the last step *)
  start_step : int;  (** steps already done before this segment ran *)
  losses : float array;  (** one loss per executed step, in step order *)
  checkpoints : string list;  (** checkpoint paths saved, oldest first *)
}

val snapshot :
  ?model:string -> ?epoch:int -> ?graph_version:int -> step:int -> Session.t -> Checkpoint.t
(** Capture the session's parameters and RNG cursor as a checkpoint at
    [step]. *)

val fit :
  ?config:Session.Config.t ->
  ?dir:string ->
  ?keep:int ->
  ?every:int ->
  ?lr:float ->
  ?model:string ->
  graph:Hector_graph.Hetgraph.t ->
  labels:int array ->
  steps:int ->
  Hector_core.Compiler.compiled ->
  result
(** Train a fresh session for [steps] steps.  With [dir], save a
    checkpoint into it at the final step and, when [every] > 0 (default 0),
    at every [every]-th step ([keep] as in {!Checkpoint.save}); without
    [dir], save nothing. *)

val resume :
  ?config:Session.Config.t ->
  dir:string ->
  ?keep:int ->
  ?every:int ->
  ?lr:float ->
  ?model:string ->
  graph:Hector_graph.Hetgraph.t ->
  labels:int array ->
  steps:int ->
  Hector_core.Compiler.compiled ->
  result
(** Continue from the latest checkpoint in [dir] up to [steps] total steps
    (falls back to {!fit} when the directory holds none).  [config] must
    match the original run's for the resume guarantee to hold. *)
