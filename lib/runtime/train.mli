(** Training utilities: loss, optimizer and fused-weight gradient
    back-propagation.

    Mirrors the paper's training methodology (§4.1): a negative
    log-likelihood loss against a (random) label tensor drives the
    generated backward pass, followed by an SGD update.  The fused weights
    produced by linear-operator fusion are recomputed every forward pass,
    so their gradients are chained back into the original weights exactly
    as PyTorch autograd would differentiate the [bmm()] the paper uses.
    Every launch it charges is built by {!Pricing}, which {!Plan_cost}
    also prices with. *)

module Tensor = Hector_tensor.Tensor

val nll_loss :
  engine:Hector_gpu.Engine.t -> out:Tensor.t -> labels:int array -> float * Tensor.t
(** Mean NLL of row-wise softmax([out]) and a fresh d(loss)/d(out),
    charging {!Pricing.loss_kernels} with provenance ["train"]. *)

val loss_and_grads :
  ?origin:string ->
  ?owned:bool array ->
  ?label_rows:int array ->
  ?inv_n:float ->
  ?on_step:(int -> unit) ->
  exec:Exec.t ->
  Hector_core.Compiler.compiled ->
  labels:int array ->
  float
(** The training-step body {!Session}, {!Minibatch} and each
    [Hector_dist.Replica] replica share: forward keeping temporaries,
    the NLL loss of the first output into the backward seed gradient,
    backward, {!backprop_weight_ops}, then the forward temporaries freed;
    returns the loss and leaves the gradients for an optimizer.  The seed
    is the one bound in [exec]'s environment, else a device-charged tensor
    bound here for later steps.  Each row adds
    [-log softmax(out_i)\[label_i\] · inv_n] to the loss, where [label_i]
    is [labels.(i)], or [labels.(label_rows.(i))]; rows [owned] marks
    [false] get a zero gradient and no loss.  [inv_n] defaults to
    [1/rows]; {!Pricing.loss_kernels} are charged over the rows counted with
    provenance [origin] (default ["train"]).  [on_step] goes to the
    backward {!Exec.run_plan}. *)

val fused_outs : Hector_core.Linear_fusion.weight_op list -> string list
(** The weight stacks linear-operator fusion computes (not parameters). *)

val backprop_weight_ops :
  exec:Exec.t -> Hector_core.Linear_fusion.weight_op list -> unit
(** Chain gradients of fused weights back to the original weights (the
    backward of the prologue [bmm()]s).  No-op for weights whose gradients
    were never touched.  Charges one {!Pricing.bmm_backward_kernel} per
    op whose product received a gradient. *)

val set_weights : exec:Exec.t -> (string * Tensor.t) list -> unit
(** Restore parameter {e values} in place — the checkpoint/restore path.
    Copies each named tensor into the environment's existing weight
    storage, so persistent allocations, gradient bindings and arena
    backings survive; a restored session is bit-identical to one that
    never stopped.  Unknown names are skipped (fusion-computed products are
    recomputed, not bound); raises [Invalid_argument] on a shape
    mismatch. *)

val sgd_step : ?skip:string list -> exec:Exec.t -> lr:float -> unit -> unit
(** [w ← w - lr·dw] for every weight with an accumulated gradient, then
    zero all gradients.  [skip] names weights that are not parameters
    (fusion-generated stacks — their gradients flow to the originals via
    {!backprop_weight_ops} instead).  Charges one elementwise kernel per
    updated weight ({!Pricing.sgd_kernel}). *)
