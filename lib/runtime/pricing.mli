(** Launch pricing: every kernel descriptor the runtime charges.  A plan
    run's launches are one {!schedule}, which {!Exec} builds at an arena's
    first [run_plan] (never at [warm_plan]) and replays, and {!Plan_cost}
    flattens; {!Train}'s loss, weight-op backprop and SGD launches and
    {!Plan_cost}'s estimate of them share the builders below.  So the
    estimate and the engine see one launch sequence in one order.
    A plan's launches are a function of the plan and the graph context
    alone, as the generated host code sizes each launch from its IR: a
    name's row width is its buffer's, else its declaration's in the
    plan's program (a backward program declares the forward values it
    reads and the loss seed); its row space is its buffer's, else the one
    {!Hector_core.Plan.spaces} records (the forward plan's, for a kept
    forward value); a weight's shape is its declaration resolved against
    the graph ({!Graph_ctx.weight_shape}, fused products included).  A
    name a step reads that the plan neither holds nor declares raises
    [Invalid_argument].  A traversal statement is charged per edge (per
    node for [Node_map]), or per pair of its side when the recorded passes
    run it in a pair loop. *)

val binding : Hector_core.Plan.t -> string -> (int * Hector_core.Materialization.space) option
(** The row width and row space pricing gives a name of [plan] — what
    [Exec] binds under it while it runs [plan] — or [None] for a name the
    plan neither holds nor declares as an input (a register local). *)

val placements : Hector_core.Plan.t -> (Hector_core.Plan.buffer * Hector_core.Plan.placement) list
(** Each buffer of the plan, in order, with its placement in the plan's
    memory plan.  Raises [Invalid_argument] naming the plan and the buffer
    when the memory plan does not place one. *)

val bind_points : nsteps:int -> ('a * Hector_core.Plan.placement) list -> 'a list * 'a list array
(** Buffers grouped by where [Exec.run_plan] binds them: at run start
    (untouched buffers, or a plan without steps) or before the step at
    their index, each group in reverse order. *)

type schedule = {
  at_start : Hector_gpu.Kernel.t array;  (** memsets bound at run start *)
  at_step : Hector_gpu.Kernel.t array array;  (** per step: memsets bound before it, then its launches *)
}

val schedule : ctx:Graph_ctx.t -> Hector_core.Plan.t -> schedule
(** One [Exec.run_plan]'s launches on [ctx]'s graph, in the engine's
    order: a memset per [zero_init] buffer outside
    {!Hector_core.Plan.inline_zeroed} where {!bind_points} binds it; per
    step one launch per weight op, GEMM or traversal, one per expression
    node of a fallback, or one merged launch (members' work summed) for a
    fused group, under the step's provenance.  Raises as {!placements}. *)

val loss_kernels : origin:string -> rows:int -> cols:int -> Hector_gpu.Kernel.t list
(** The [log_softmax] and [nll_grad] launches of the NLL loss. *)

val bmm_backward_kernel :
  shape:(string -> int array) -> Hector_core.Linear_fusion.weight_op -> Hector_gpu.Kernel.t
(** [Train.backprop_weight_ops]'s launch for one weight op, given the
    shapes of its factor and product stacks by name. *)

val sgd_kernel : name:string -> shape:int array -> Hector_gpu.Kernel.t
(** [Train.sgd_step]'s launch for weight [name], a stack of [shape]. *)
