(** Cost-model-guided configuration selection (the paper's §6 first item,
    built here as an extension).

    §4.3 observes that the best combination of compact materialization and
    linear-operator fusion "varies across models and/or datasets", and
    quantifies the gap: picking per-input beats any fixed choice.  The
    search compiles every candidate in the space (layout U/C/F/C+F × GEMM
    tile {16,32} × coarsening {2,4} × traversal accumulation strategy ×
    node-gather scheduling × inter-op fusion on/off: 88 distinct
    configurations) once and ranks them by the analytic {!Plan_cost}
    estimator.  The estimator shares its launch descriptors and roofline
    with the engine, so its number is the simulated epoch time itself;
    the only thing a ranking cannot tell is whether a configuration fits
    in device memory.  The search therefore runs one steady-state epoch of
    the best-ranked candidate, and moves down the ranking only when that
    run is out of memory.

    Winners can be persisted through {!Tuning_db} ([?db]); [hector serve
    --db] then resolves its options from the database without searching. *)

type candidate = {
  options : Hector_core.Compiler.options;
  estimated_ms : float;  (** analytic {!Plan_cost} prediction *)
}

type result = {
  best : candidate;  (** the best-ranked candidate that fits in device memory *)
  measured_ms : float;  (** [best]'s steady-state epoch on the simulator *)
  ranked : candidate list;
      (** every candidate that compiles, best estimate first (ties keep
          the space's order, fixed layouts first); the entries ahead of
          [best] do not fit in device memory *)
}

val search :
  ?device:Hector_gpu.Device.t ->
  ?training:bool ->
  ?db:Tuning_db.t ->
  ?model_name:string ->
  graph:Hector_graph.Hetgraph.t ->
  Hector_core.Inter_ir.program ->
  result
(** Find the fastest configuration of a model on a graph.  A candidate
    the compiler rejects ([Invalid_argument] or
    {!Hector_core.Autodiff.Unsupported}) leaves the space; any other
    exception propagates.  [db] records the winner under the model's
    fingerprint and the graph's signature, with [measured_ms] as the
    entry's measurement (the caller persists with {!Tuning_db.save}).
    Raises [Invalid_argument] if no candidate compiles or none fits in
    device memory. *)

val measure :
  ?device:Hector_gpu.Device.t ->
  training:bool ->
  graph:Hector_graph.Hetgraph.t ->
  Hector_core.Compiler.compiled ->
  float
(** One steady-state epoch of [compiled] in simulated ms: a fresh session
    (seed 11) runs two epochs — forwards, or training steps on fixed
    labels when [training] — and the second is timed.  Raises
    [Hector_gpu.Memory.Out_of_memory] when it does not fit on the device. *)

val describe : result -> string
(** Human-readable one-liner for the winner, e.g.
    ["C+F, tile 32, coarsen 2: est 0.123 ms, measured 0.123 ms"]. *)
