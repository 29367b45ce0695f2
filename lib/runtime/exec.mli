(** Plan execution on the simulated GPU.

    Interprets a compiled {!Hector_core.Plan.t} against a graph and an
    environment: every step both {e computes its result} on the CPU (so
    outputs are bit-for-bit testable against reference models) and
    {e charges} a kernel-launch descriptor to the engine (so simulated time
    and memory reflect a paper-scale GPU run).

    GEMM-template steps execute as fused gather→segment-MM→scatter kernels
    (one launch each).  The host computes each (relation, endpoint) pair
    once: a forward gather into edge rows copies its pair's first row, and
    a backward GEMM over an edge-row gradient first sums that gradient
    into the side's compact pairs, so an uncompacted (U) plan's backward
    runs the compact (C) plan's GEMMs — bit for bit the C results when
    both layouts compute the same edge gradients, as RGCN's and HGT's do.
    Each launch is still charged for every edge row.  Traversal steps
    stage their fused statement body at step entry — buffers, weight
    stacks and index columns resolved to flat arrays once per run, one
    specialized float loop per operator, pointwise statement roots
    written straight into their targets — and sweep the staged closures
    per edge or per node (one launch each).  An edge sweep first
    evaluates each reduction that is constant on one side's compact
    pairs once per pair, into host scratch the sweep then reads; the
    launch still charges every edge.
    Fallback steps run through the same stager but are charged one launch
    and full operand materialization per expression node, as the PyTorch
    path would. *)

module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine

(** Row values flowing through traversal statements. *)
type value = Scalar of float | Vector of float array

type opaque_fn = value list -> value
(** Implementation of an {!Hector_core.Inter_ir.expr.Opaque} operator.
    Its result must have the shape of its first argument (a scalar when
    it has none); any other shape raises [Invalid_argument]. *)

type managed
(** A plan buffer backed by an arena storage slot. *)

type arena
(** Plan-lifetime buffer storage: one device allocation per
    {!Hector_core.Buffer_plan} storage slot, created on the first
    [run_plan] of a plan and reused by every later run — steady-state runs
    bind views into the environment instead of allocating. *)

type slab
(** Cross-executor arena storage: slot backings keyed by (plan name, slot),
    each kept at its high-water capacity.  Hand the same slab to a sequence
    of executors (e.g. one per sampled block in a serving loop) and each
    rebuilds its arenas as prefix {!Tensor.view}s of the cached backings —
    after a warmup pass sized at the largest block, steady-state executors
    allocate no plan-buffer storage at all.  A slab assumes serial use:
    executors sharing one must not run concurrently. *)

val create_slab : ?epoch:int -> unit -> slab
(** [epoch] (default 0) tags the slab with the capacity epoch its backings
    were warmed for (see {!Hector_stream.Mutable_graph}): backings survive
    every in-slack graph mutation, and a replica re-warms a fresh slab
    only when the epoch advances.  The tag is bookkeeping for that
    invalidation protocol — it does not change allocation behavior. *)

val slab_epoch : slab -> int
(** The capacity epoch the slab was created for. *)

type scratch
(** Host scratch for the pair-invariant reductions of traversal sweeps,
    kept at its high-water size; shared through the slab when there is
    one.  Never charged to device memory. *)

type t = {
  engine : Engine.t;
  ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  slab : slab option;
  scratch : scratch;
  mutable arenas : (Hector_core.Plan.t * bool * arena) list;
}

val create :
  ?opaque:(string * opaque_fn) list ->
  ?slab:slab ->
  engine:Engine.t ->
  ctx:Graph_ctx.t ->
  env:Env.t ->
  unit ->
  t
(** Bundle an execution state.  [opaque] registers fallback operator
    implementations by name.  [slab] shares arena backings across executors (see {!type:slab}). *)

val warm_plan : ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Build (or adopt from the slab) the plan's arena without running any
    step, taking whatever allocations the arena needs now rather than on
    the first [run_plan].  It also reserves, on the calling domain, the
    host pair rows the plan's edge-row backward GEMMs sum their gradients
    into (see {!Tensor.segment_gather_t_into}), sized for this context's
    graph — an upper bound for every sampled block of it.  [free_temps]
    must match the mode later runs use (default [true]). *)

val run_plan : ?on_step:(int -> unit) -> ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Execute all steps in order: materialize (and zero) the plan's buffers,
    run every step, then free buffers marked [temp] (default [true]).
    [on_step] is called with each top-level step index right after that
    step executes — the hook the distributed runtime uses to detect
    gradient-bucket boundaries while backward is still running.
    Buffer storage comes from a per-plan arena reused across calls: the
    first call allocates one backing per storage slot of the
    {!Hector_core.Plan.memory} coloring, later calls allocate nothing.
    With [free_temps = false] the coloring degrades to identity — one
    slot per buffer, none shared, every buffer live for the whole run.
    Every launch carries the {!Hector_gpu.Kernel.provenance} of its plan
    step (op, step index, originating pass); the whole run is wrapped in a
    ["run"] span on the engine's observability handle.
    Raises [Hector_gpu.Memory.Out_of_memory] when the storage does not fit
    at paper scale, and [Invalid_argument] on malformed plans. *)

val free_temp_buffers : t -> Hector_core.Plan.t -> unit
(** Release the plan's [temp]-marked buffers (used by training drivers that
    run forward with [~free_temps:false] and clean up after backward). *)

(** {1 Traversal schedule}

    How [run_plan] sweeps a traversal or fallback body, exposed so a test
    can replay it with an independent evaluator. *)

type stmt_iteration =
  | Per_edge  (** every iteration of the strategy *)
  | Per_pair_src  (** only the representative edge of each (etype, src) pair *)
  | Per_pair_dst  (** only the representative edge of each (etype, dst) pair *)

type pass = {
  stmts : (Hector_core.Inter_ir.stmt * stmt_iteration) list;
  parallel : bool;
      (** swept across the domain pool in destination chunks of
          {!node_grain} nodes, weight gradients into per-chunk scratch
          merged in chunk order; otherwise one sequential loop *)
}
(** One sequential pass of a step's body. *)

val traversal_passes : Env.t -> Hector_core.Traversal_spec.t -> pass list
(** A traversal step's passes at the current domain-pool size. *)

val fallback_passes : Env.t -> Hector_core.Plan.fallback -> pass list
(** A fallback step's single pass (every statement [Per_edge]). *)

val node_grain : int
(** Destination nodes per chunk of a parallel sweep. *)

(** {1 Launch sequence}

    The analytic cost side of execution, shared with {!Plan_cost} so it can
    price a compiled plan {e without running it}.  [run_plan] charges the
    engine through the same builders, bound for bound and step for step,
    so the estimator and the engine see one launch sequence in one order
    by construction.  Only the [dim]
    and [space] fields of environment entries (and weight-stack shapes)
    are consulted — tensor contents never are, so a dummy environment
    carrying the right shapes prices identically to a live one. *)

val plan_kernels :
  env:Env.t -> ctx:Graph_ctx.t -> Hector_core.Plan.t -> Hector_gpu.Kernel.t list
(** The launch sequence of one [run_plan] on a fresh executor, whose
    arena manages every buffer the plan's memory plan places, in the
    order the engine is charged: a memset for each [zero_init] buffer
    outside {!Hector_core.Plan.inline_zeroed} where [run_plan] binds it
    (at run start, or before the buffer's first step), and each step's
    kernels after that step's memsets: one per weight-op / GEMM /
    traversal step, one per expression node for fallbacks, and one merged
    kernel for a fused group (members' work summed).  [env] must bind
    every buffer and weight stack the plan references, with correct
    dims and spaces. *)
