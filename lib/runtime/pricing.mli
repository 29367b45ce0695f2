(** Launch pricing: every kernel descriptor the runtime charges.  {!Exec}
    charges a plan's steps, {!Train} a training step's loss, weight-op
    backprop and SGD launches, and {!Plan_cost} prices a compiled plan
    {e without running it} — all through these builders, so the estimate
    and the engine see one launch sequence in one order by construction.
    Only environment entries' [dim]/[space], weight-stack shapes, the
    graph context's sizes and the plan (specs, layout, memory plan,
    recorded traversal passes) are read, never tensor contents.  A
    traversal statement is charged per edge (per node for [Node_map]),
    or per pair of its side when the recorded passes run it in a pair
    loop. *)

val step_kernels :
  env:Env.t -> ctx:Graph_ctx.t -> plan:Hector_core.Plan.t -> Hector_core.Plan.step -> Hector_gpu.Kernel.t list
(** A step's launches: one per weight-op / GEMM / traversal step, one per
    expression node for a fallback, one merged kernel (members' work
    summed) for a fused group. *)

val buffer_memset :
  ctx:Graph_ctx.t -> inlined:string list -> Hector_core.Plan.buffer -> Hector_gpu.Kernel.t option
(** The zero fill a [zero_init] buffer is charged each time it is bound,
    unless [inlined] ({!Hector_core.Plan.inline_zeroed}) names it. *)

val placements : Hector_core.Plan.t -> (string, Hector_core.Plan.placement) Hashtbl.t
(** Each buffer's placement in the plan's memory plan (computed on the
    spot when the plan has none), by name. *)

val bind_points : nsteps:int -> ('a * Hector_core.Plan.placement) list -> 'a list * 'a list array
(** Buffers grouped by where [Exec.run_plan] binds them: at run start
    (untouched buffers, or a plan without steps) or before the step at
    their index, each group in reverse order. *)

val plan_kernels : env:Env.t -> ctx:Graph_ctx.t -> Hector_core.Plan.t -> Hector_gpu.Kernel.t list
(** One [Exec.run_plan] on a fresh executor, in the engine's order: the
    memsets of unplaced buffers, then of buffers bound at run start, then
    per step the memsets bound before it and its {!step_kernels}. *)

val loss_kernels : origin:string -> rows:int -> cols:int -> Hector_gpu.Kernel.t list
(** The [log_softmax] and [nll_grad] launches of the NLL loss. *)

val bmm_backward_kernel : env:Env.t -> Hector_core.Linear_fusion.weight_op -> Hector_gpu.Kernel.t
(** [Train.backprop_weight_ops]'s launch for one weight op. *)

val sgd_kernel : name:string -> Hector_tensor.Tensor.t -> Hector_gpu.Kernel.t
(** [Train.sgd_step]'s launch for weight [name]. *)
