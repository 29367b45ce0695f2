(** Launch pricing: every kernel descriptor the runtime charges.  {!Exec}
    charges a plan's steps, {!Train} a training step's loss, weight-op
    backprop and SGD launches, and {!Plan_cost} prices a compiled plan
    {e without running it} — all through these builders, so the estimate
    and the engine see one launch sequence in one order by construction.
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

val step_kernels :
  ctx:Graph_ctx.t -> plan:Hector_core.Plan.t -> Hector_core.Plan.step -> Hector_gpu.Kernel.t list
(** A step's launches: one per weight-op / GEMM / traversal step, one per
    expression node for a fallback, one merged kernel (members' work
    summed) for a fused group. *)

val buffer_memset :
  ctx:Graph_ctx.t -> inlined:string list -> Hector_core.Plan.buffer -> Hector_gpu.Kernel.t option
(** The zero fill a [zero_init] buffer is charged each time it is bound,
    unless [inlined] ({!Hector_core.Plan.inline_zeroed}) names it. *)

val placements : Hector_core.Plan.t -> (Hector_core.Plan.buffer * Hector_core.Plan.placement) list
(** Each buffer of the plan, in order, with its placement in the plan's
    memory plan (computed on the spot when the plan has none).  Raises
    [Invalid_argument] naming the plan and the buffer when the memory
    plan does not place one. *)

val bind_points : nsteps:int -> ('a * Hector_core.Plan.placement) list -> 'a list * 'a list array
(** Buffers grouped by where [Exec.run_plan] binds them: at run start
    (untouched buffers, or a plan without steps) or before the step at
    their index, each group in reverse order. *)

val plan_kernels : ctx:Graph_ctx.t -> Hector_core.Plan.t -> Hector_gpu.Kernel.t list
(** One [Exec.run_plan], in the engine's order: the memsets of buffers
    bound at run start, then per step the memsets bound before it and its
    {!step_kernels}.  Raises [Invalid_argument] as {!placements} does. *)

val loss_kernels : origin:string -> rows:int -> cols:int -> Hector_gpu.Kernel.t list
(** The [log_softmax] and [nll_grad] launches of the NLL loss. *)

val bmm_backward_kernel :
  shape:(string -> int array) -> Hector_core.Linear_fusion.weight_op -> Hector_gpu.Kernel.t
(** [Train.backprop_weight_ops]'s launch for one weight op, given the
    shapes of its factor and product stacks by name. *)

val sgd_kernel : name:string -> shape:int array -> Hector_gpu.Kernel.t
(** [Train.sgd_step]'s launch for weight [name], a stack of [shape]. *)
