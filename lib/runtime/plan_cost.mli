(** Analytic plan cost estimator — the autotuner's ranking.

    Predicts the steady-state simulated milliseconds of one epoch of a
    compiled model {e without executing it}, from the compiled program
    alone: no environment is built and no tensor is allocated.  The
    launches are the ones {!Exec} and {!Train} charge, built by the same
    {!Pricing} functions in the engine's order: the forward plan's
    {!Pricing.schedule} flattened (the schedule {!Exec} builds at an
    arena's first run and replays), and for training the NLL loss
    reductions, the backward plan's schedule, then one [bmm_backward] per
    weight op whose product received a gradient and one SGD update per
    updated weight, shaped by its declaration ({!Graph_ctx.weight_shape}).
    Each is priced with {!Hector_gpu.Engine.predict_ms} under the graph's
    cost scale.

    Because the descriptors, their order and the roofline are shared with
    the engine, the estimate of a config equals the simulator's measured
    steady-state epoch bit for bit; the autotuner ranks the whole
    candidate space by it and runs only the winner. *)

type t
(** An estimator bound to a (device, graph) pair; build one and reuse it
    across every candidate compilation of a search. *)

val create : ?device:Hector_gpu.Device.t -> graph:Hector_graph.Hetgraph.t -> unit -> t
(** Default device: {!Hector_gpu.Device.rtx3090} (the engine's default). *)

val kernels : t -> Hector_core.Compiler.compiled -> Hector_gpu.Kernel.t list
(** The full steady-state launch sequence of one epoch, in execution
    order: the forward plan, and for training options the loss kernels,
    the backward plan and the optimizer kernels.  Descriptors are at
    logical (unscaled) work quantities, with their provenance, exactly as
    execution hands them to the engine. *)

val estimate_ms : t -> Hector_core.Compiler.compiled -> float
(** Sum of {!Hector_gpu.Engine.predict_ms} over {!kernels} — the predicted
    steady-state sim-ms per epoch. *)
