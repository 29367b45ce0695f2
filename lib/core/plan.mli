(** Compiled execution plans.

    A plan is the output of lowering: the ordered kernel steps (the
    structured analogue of the generated CUDA + host functions), plus the
    buffer table the host code would allocate.  The runtime interprets a
    plan against a concrete graph and parameter set; {!Codegen} renders it
    as CUDA-like source text. *)

type buffer = {
  name : string;
  scope : [ `Node | `Edge ];
  space : Materialization.space;
  dim : int;  (** columns of the materialized tensor *)
  zero_init : bool;  (** accumulated variable — must start at zero *)
  temp : bool;  (** freed after the run (not an output / not kept for backward) *)
}

type fallback = {
  kid : int;
  description : string;  (** which operator forced the fallback *)
  strategy : Traversal_spec.strategy;
  body : Inter_ir.stmt list;
  passes : Traversal_spec.pass list;
      (** recorded by {!Traversal_passes.record}, as for traversals *)
}
(** A statement run executed by the PyTorch-fallback path: semantically a
    traversal, but each expression node costs its own kernel launch and
    full operand materialization (no fusion) — the §3.1.1 escape hatch. *)

type step =
  | Weight_op of Linear_fusion.weight_op  (** linear-fusion prologue product *)
  | Gemm of Gemm_spec.t
  | Traversal of Traversal_spec.t
  | Fallback of fallback
  | Fused of fused
      (** inter-op fusion group: the members execute in order but the whole
          group launches as one kernel (see {!Inter_op_fusion}) *)

and fused = { fid : int; members : step list }

type placement = {
  var : string;  (** buffer name *)
  slot : int;  (** storage slot id assigned by the interval coloring *)
  first : int;  (** index of the first step touching the buffer, -1 if none *)
  last : int;  (** index of the last step touching the buffer, -1 if none *)
  uninit_ok : bool;
      (** the first-touching step provably overwrites every row before any
          read, so backing storage needs no zeroing (see
          {!Hector_tensor.Tensor.create_uninit}) *)
}
(** Where one buffer lives over the plan's step list — the output of the
    {!Buffer_plan} liveness analysis.  Temp buffers with disjoint live
    ranges are colored onto the same [slot]; the runtime backs each slot
    with one arena allocation reused across runs. *)

type memory = { placements : placement list; num_slots : int }
(** The plan-lifetime memory plan: one placement per buffer. *)

type t = {
  name : string;
  layout : Layout.t;
  program : Inter_ir.program;  (** the transformed program this plan implements *)
  buffers : buffer list;  (** in allocation order *)
  steps : step list;  (** in execution order *)
  spaces : (Inter_ir.var * Materialization.space) list;
      (** row-space lookup for every variable the steps may touch,
          including context (forward-pass) variables *)
  memory : memory;
      (** buffer liveness + slot coloring of [buffers] over [steps]
          ({!Buffer_plan.analyze}); a hand-built plan runs the analysis
          itself *)
}

val step_name : step -> string
(** Kernel/step identifier for reports. *)

val accesses : step -> Inter_ir.access list
(** What a step reads and writes, in execution order: a GEMM's from
    {!Gemm_spec.accesses}, a traversal or fallback body's from
    {!Inter_ir.accesses}, a fused group's members' in turn.  A weight op
    touches only weight stacks: [[]]. *)

val step_op : step -> string
(** The inter-op IR operator a step computes, for attribution: the output
    variable of GEMM/weight-op steps, the first written variable of
    traversal/fallback bodies.  Falls back to {!step_name} (traversals) or
    the fallback description when the body writes nothing. *)

val written_grads : step -> string list
(** The weights whose gradient stacks a step accumulates into, in
    execution order (repeats kept): the [Weight_grad] facts of
    {!accesses} — dweight GEMM targets and [Grad_weight] statements of
    traversal and fallback bodies, inside loops and fused groups too.
    The one answer to "which weight gradients does this step write". *)

val step_origin : step -> string
(** The compiler component that emitted the step: ["linear_fusion"],
    ["lowering.gemm"], ["lowering.traversal"], ["lowering.fallback"] or
    ["inter_op_fusion"] — the [origin] field of the
    {!Hector_gpu.Kernel.provenance} the runtime attaches to the step's
    launches. *)

val step_constituents : step -> string list
(** For a {!Fused} step, the [step_op] of every member in execution order
    (the [fused] field of its launch provenance); [[]] for other steps. *)

val flatten_steps : t -> step list
(** The plan's steps with fused groups expanded back to their members, in
    execution order — the per-kernel view of the plan. *)

val gemm_count : t -> int
(** Number of GEMM-template steps (counting inside fused groups). *)

val traversal_count : t -> int
(** Number of traversal-template steps (counting inside fused groups). *)

val fallback_count : t -> int
(** Number of fallback steps (counting inside fused groups). *)

val fused_count : t -> int
(** Number of fused-group steps. *)

val inline_zeroed : t -> string list
(** Names of zero-init (accumulator) buffers whose entire live range sits
    inside a single fused step: their zeroing happens inside the fused
    kernel, so the runtime charges no separate memset launch for them. *)

val find_buffer : t -> string -> buffer option
(** Look up a buffer by variable name. *)

val preprocessing : t -> string list
(** The dataset preprocessing this plan's kernels require before
    training/inference can start (§3.6's collection pass): adjacency
    encodings, compact-materialization maps, node presorting.  The runtime
    performs each the first time a kernel asks its [Graph_ctx] for it; the
    generated host code would emit the equivalent invocations. *)

val pp : Format.formatter -> t -> unit
(** Human-readable plan dump (buffers + steps). *)
