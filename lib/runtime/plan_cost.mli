(** Analytic plan cost estimator — stage 1 of the autotuner.

    Predicts the steady-state simulated milliseconds of one epoch of a
    compiled model {e without executing it}: walks the plan(s), rebuilds
    the exact launch descriptors {!Exec} would charge (via the shared
    {!Exec.step_kernels} builders — GEMM and traversal shapes from the
    specs, one merged launch per fused step, a memset per zero-init buffer
    outside {!Hector_core.Plan.inline_zeroed}) and prices each with
    {!Hector_gpu.Engine.predict_ms} under the graph's cost scale.  Training
    estimates add the backward plan plus the {!Train} epoch charges (NLL
    loss reductions, weight-op backprop, SGD updates).

    Because the descriptors and the roofline are shared with the engine,
    the estimate of a config equals the simulator's measured steady-state
    epoch exactly; the autotuner uses it to rank the whole candidate space
    and only measures a pruned top-k. *)

type t
(** An estimator bound to a (device, graph) pair; build one and reuse it
    across every candidate compilation of a search. *)

val create : ?device:Hector_gpu.Device.t -> graph:Hector_graph.Hetgraph.t -> unit -> t
(** Default device: {!Hector_gpu.Device.rtx3090} (the engine's default). *)

val kernels : t -> Hector_core.Compiler.compiled -> Hector_gpu.Kernel.t list
(** The full steady-state launch sequence of one epoch: forward plan, and
    for training options also the backward plan and optimizer/loss
    kernels.  Descriptors are at logical (unscaled) work quantities,
    exactly as execution would hand them to the engine. *)

val estimate_ms : t -> Hector_core.Compiler.compiled -> float
(** Sum of {!Hector_gpu.Engine.predict_ms} over {!kernels} — the predicted
    steady-state sim-ms per epoch. *)
