(** Minibatch training over sampled blocks (paper §6, second item).

    For graphs that do not fit in device memory, each step samples a k-hop
    neighborhood block of a seed batch on the host, transfers its inputs
    over PCIe and runs a full forward/backward on the block.  The
    simulator charges the transfer at the device's PCIe bandwidth and the
    sampling at a host-cost model, so the step breakdown shows the
    data-movement bottleneck the paper's future-work section targets.

    A trainer is a loop over one {!Block} replica, the staging serving
    uses: one engine, executor and set of staging buffers for its life,
    plans warmed once, so no step allocates device memory.  Each step runs
    {!Train.loss_and_grads} on the staged block, then SGD.  Weights
    persist across steps.  The loss is the batch's own, over its seeds'
    block rows; the block's other rows only feed them. *)

type t
(** Compiled model + parent graph and its incoming CSR + block replica. *)

type step_report = {
  loss : float;  (** mean NLL over the batch's seeds, each labelled by its parent id *)
  block_nodes : int;
  block_edges : int;
  sample_ms : float;  (** simulated sampling cost ({!Block.sample_cost_ms}) *)
  transfer_ms : float;  (** PCIe transfer of the block's features and norm *)
  compute_ms : float;  (** forward + backward + optimizer on device *)
}

val create :
  ?seed:int ->
  graph:Hector_graph.Hetgraph.t ->
  features:Hector_tensor.Tensor.t ->
  labels:int array ->
  Hector_core.Compiler.compiled ->
  t
(** Set up a trainer: the parent graph stays on the host; [features] is the
    full [num_nodes × dim] node-feature matrix, [labels] one class per
    parent node.  The model must be compiled with [training = true] and
    pass {!Block.inputs}; violations raise [Invalid_argument] naming the
    input.  The initial weights are a parent-graph {!Session}'s created
    with [seed] and [features], the draw a serving replica makes.

    [seed] (default 1) pins {e everything} stochastic about the run:
    weight initialization, the epoch batch shuffle, and each step's
    neighborhood sampling (per-step sampler seeds are derived from [seed]
    and the step counter).  Two trainers created with the same seed over
    the same data produce identical losses. *)

val step : t -> ?lr:float -> ?fanout:int -> ?hops:int -> batch:int array -> unit -> step_report
(** One minibatch step over the given seed batch (parent node ids), on an
    engine clock restarted at zero.  A batch the sampler rejects raises
    [Invalid_argument] and is not counted: later steps sample as if it
    had never been given. *)

val train_epochs :
  t -> ?lr:float -> ?fanout:int -> ?hops:int -> ?batch_size:int -> epochs:int -> unit -> float
(** Convenience loop: random seed batches covering the node set each
    epoch; returns the final mean loss.  Raises [Invalid_argument] naming
    [batch_size] when it is below 1. *)

val weights : t -> (string * Hector_tensor.Tensor.t) list
(** The persistent parameter stacks (live references). *)

val engine : t -> Hector_gpu.Engine.t
(** The trainer's engine (statistics cover the latest step). *)
