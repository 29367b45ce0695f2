(** Plan execution on the simulated GPU.

    Interprets a compiled {!Hector_core.Plan.t} against a graph and an
    environment: every step both {e computes its result} on the CPU (so
    outputs are bit-for-bit testable against reference models) and
    {e charges} a kernel-launch descriptor to the engine (so simulated time
    and memory reflect a paper-scale GPU run).

    GEMM-template steps execute as fused gather→segment-MM→scatter kernels
    (one launch each).  Traversal steps stage their fused statement body
    at step entry — buffers, weight stacks and row maps resolved to flat
    arrays once per run, one specialized float loop per operator — and
    sweep the staged closures per edge or per node (one launch each).
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

type t = {
  engine : Engine.t;
  ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  planner : bool;
  slab : slab option;
  mutable arenas : (Hector_core.Plan.t * bool * arena) list;
  mutable cur_prov : Hector_gpu.Kernel.provenance option;
      (** provenance of the plan step currently executing; applied to every
          kernel the step launches *)
  mutable capture : Hector_gpu.Kernel.t list ref option;
      (** while a {!Hector_core.Plan.step.Fused} group executes its members,
          their launches are recorded here instead of charged; the group
          then launches one merged kernel carrying the summed work *)
}

val create :
  ?opaque:(string * opaque_fn) list ->
  ?planner:bool ->
  ?slab:slab ->
  engine:Engine.t ->
  ctx:Graph_ctx.t ->
  env:Env.t ->
  unit ->
  t
(** Bundle an execution state.  [opaque] registers fallback operator
    implementations by name.  [planner] selects the plan-lifetime arena
    path (default: the {!Knobs.current} [arena] knob, i.e. on unless
    [HECTOR_ARENA] disables it); with it off, every [run_plan] allocates
    all plan buffers up front and frees temporaries at the end.  [slab]
    shares arena backings across executors (see {!type:slab}). *)

val warm_plan : ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Build (or adopt from the slab) the plan's arena without running any
    step, taking whatever allocations the arena needs now rather than on
    the first [run_plan].  [free_temps] must match the mode later runs use
    (default [true]).  No-op when the planner is off. *)

val run_plan : ?on_step:(int -> unit) -> ?free_temps:bool -> t -> Hector_core.Plan.t -> unit
(** Execute all steps in order: materialize (and zero) the plan's buffers,
    run every step, then free buffers marked [temp] (default [true]).
    [on_step] is called with each top-level step index right after that
    step executes — the hook the distributed runtime uses to detect
    gradient-bucket boundaries while backward is still running.
    With the planner on, buffer storage comes from a per-plan arena reused
    across calls: the first call allocates one backing per storage slot of
    the {!Hector_core.Plan.memory} coloring, later calls allocate nothing.
    Every launch carries the {!Hector_gpu.Kernel.provenance} of its plan
    step (op, step index, originating pass); the whole run is wrapped in a
    ["run"] span on the engine's observability handle.
    Raises [Hector_gpu.Memory.Out_of_memory] when the storage does not fit
    at paper scale, and [Invalid_argument] on malformed plans. *)

val free_temp_buffers : t -> Hector_core.Plan.t -> unit
(** Release the plan's [temp]-marked buffers (used by training drivers that
    run forward with [~free_temps:false] and clean up after backward). *)

val value_dim : value -> int
(** 1 for scalars, the array length for vectors. *)

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

(** {1 Launch-descriptor builders}

    The analytic cost side of execution, exposed so {!Plan_cost} can price
    a compiled plan {e without running it}.  Each builder returns exactly
    the {!Hector_gpu.Kernel.t} the corresponding [run_plan] step hands to
    the engine; only the [dim] and [space] fields of environment entries
    (and weight-stack shapes) are consulted — tensor contents never are, so
    a dummy environment carrying the right shapes prices identically to a
    live one. *)

val step_kernels :
  env:Env.t -> ctx:Graph_ctx.t -> plan:Hector_core.Plan.t -> Hector_core.Plan.step -> Hector_gpu.Kernel.t list
(** The launch sequence one step charges per steady-state run: one kernel
    per weight-op / GEMM / traversal step, one per expression node for
    fallbacks, and one merged kernel for a fused group (members summed, as
    {!run_plan} merges captured launches).  [env] must bind every buffer
    and weight stack the step references, with correct dims/spaces. *)

val memset_kernel : name:string -> rows:int -> dim:int -> Hector_gpu.Kernel.t
(** The zero-fill launch charged for a [zero_init] plan buffer on every
    run (buffers in {!Hector_core.Plan.inline_zeroed} skip it). *)

val merge_kernels : string -> Hector_gpu.Kernel.t list -> Hector_gpu.Kernel.t
(** One kernel standing for a fused group: work summed, grid/block maxed,
    launched once ([Gemm] category if any member is). *)
