(** Plan execution on the simulated GPU.

    Interprets a compiled {!Hector_core.Plan.t} against a graph and an
    environment: every step both {e computes its result} on the CPU (so
    outputs are bit-for-bit testable against reference models) and
    {e charges} its launches, the plan's {!Pricing.schedule}, to the
    engine (so simulated time and memory reflect a paper-scale GPU run).

    GEMM-template steps execute as fused gather→segment-MM→scatter kernels
    (one launch each).  The host computes each (relation, endpoint) pair
    once: a forward gather into edge rows copies its pair's first row, and
    a backward GEMM over an edge-row gradient first sums that gradient
    into the side's compact pairs, so an uncompacted (U) plan's backward
    runs the compact (C) plan's GEMMs — bit for bit the C results when
    both layouts compute the same edge gradients, as RGCN's and HGT's do.
    Each launch is still charged for every edge row.

    Traversal and fallback steps run the passes the compiler recorded
    ({!Hector_core.Traversal_passes}) as written: each pass's pair loops
    at their pairs' representative edges, then its sweep.  When the pass
    is parallel-safe and the pool has more than one domain, the sweep's
    other statements run in destination chunks and its weight-gradient
    statements run after them, in the sweep's order, each weight slice on
    one domain when the slice column is sorted along that order;
    otherwise the sweep is one loop.  Weight gradients accumulate straight
    into the environment's stacks, which staging resolves on the calling
    domain, so every domain count adds the same terms in the same order
    and yields the same bits.  Bodies are staged at step entry into
    flat-array closures.  A body without recorded passes raises
    [Invalid_argument]. *)

module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine

(** Row values flowing through traversal statements. *)
type value = Scalar of float | Vector of float array

type opaque_fn = value list -> value
(** Implementation of an {!Hector_core.Inter_ir.expr.Opaque} operator.
    Its result must have the shape of its first argument (a scalar when
    it has none); any other shape raises [Invalid_argument]. *)

type arena
(** Plan-lifetime buffer storage: one device allocation per
    {!Hector_core.Buffer_plan} storage slot, created on the first
    [run_plan] of a plan and reused by every later run — steady-state runs
    bind views into the environment instead of allocating.  {!rebind}
    re-cuts its views for another graph and keeps its backings. *)

type t = private {
  engine : Engine.t;
  mutable ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  mutable reuse : Row_reuse.block option;
  mutable scratch : float array array;
  mutable arenas : (Hector_core.Plan.t * bool * arena) list;
}
(** An execution state.  [ctx] and [reuse] change only through
    {!rebind}.  [scratch] holds the host rows of recorded pair reductions,
    kept at their high-water size and never charged to device memory. *)

val create :
  ?opaque:(string * opaque_fn) list ->
  engine:Engine.t ->
  ctx:Graph_ctx.t ->
  env:Env.t ->
  unit ->
  t
(** Bundle an execution state with no arenas and no row table.
    [opaque] registers fallback operator implementations by name. *)

val rebind : ?reuse:Row_reuse.block -> t -> ctx:Graph_ctx.t -> unit
(** Point the executor at another graph, such as the next sampled block
    of the graph it was warmed on.  It unbinds every plan buffer left
    bound and re-cuts each arena for [ctx] as a fresh arena would find
    it: slot backings are kept (one too small grows, and the device
    charge it supersedes is freed), views are cut as never bound, and the
    plan is priced on [ctx] at its next run.  [reuse] (none when absent)
    serves every untransposed, non-accumulating [Node_linear] and unscaled
    [Edge_linear] step over the block's feature input times a declared
    parameter from a replica's {!Row_reuse} table, with the same bits and
    launch. *)

val warm_plan : ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Build the plan's arena without running or pricing any step, taking
    whatever allocations the arena needs now rather than on the first
    [run_plan].  It also reserves, on the calling
    domain, the host pair rows the plan's edge-row backward GEMMs sum
    their gradients into (see {!Tensor.segment_gather_t_into}), sized for
    this context's graph — an upper bound for every sampled block of it.
    [free_temps] must match the mode later runs use (default [true]). *)

val run_plan : ?on_step:(int -> unit) -> ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Execute all steps in order: bind (and zero) the plan's buffers as
    arena views, run every step, then unbind buffers marked [temp]
    (default [true]).
    [on_step] is called with each top-level step index right after that
    step executes — the hook the distributed runtime uses to detect
    gradient-bucket boundaries while backward is still running.
    Buffer storage comes from a per-plan arena reused across calls: the
    first call allocates one backing per storage slot of the
    {!Hector_core.Plan.memory} coloring, later calls allocate nothing.
    With [free_temps = false] the coloring degrades to identity — one
    slot per buffer, none shared, every buffer live for the whole run.
    Launches replay the arena's {!Pricing.schedule} (built by its first
    run), each with its plan step's {!Hector_gpu.Kernel.provenance} (op,
    step index, originating pass); the whole run is wrapped in a ["run"]
    span on the engine's observability handle.
    The arena manages every buffer of the plan: building it raises
    [Invalid_argument] naming the plan and the buffer, before anything is
    bound or charged, when a buffer is already bound in the environment
    or has no {!Pricing.placements} entry.
    Raises [Hector_gpu.Memory.Out_of_memory] when the storage does not fit
    at paper scale, and [Invalid_argument] on malformed plans. *)

val free_temp_buffers : t -> Hector_core.Plan.t -> unit
(** Unbind the plan's [temp]-marked buffers (used by training drivers that
    run forward with [~free_temps:false] and clean up after backward).
    Their storage stays with the arena, so nothing is released. *)
