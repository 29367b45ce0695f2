(** Serving live traffic over a mutating graph — the driver tying
    {!Mutable_graph} to {!Hector_serve.Serve}.

    One [t] owns one serving replica for its whole life, warmed against
    the mutable graph's {!Mutable_graph.capacity_graph}, so every
    in-epoch snapshot fits the replica's block: its executor's arena
    backings and its staging tensors.  The caller {!apply}s deltas
    between {!serve} calls.  In slack that is a pure
    {!Hector_serve.Serve.update_graph} (zero compiles, zero engine
    allocations); an epoch bump grows the replica's block to the new
    capacity graph in place ({!Hector_serve.Serve.rewarm}), keeping its
    engine, executor, plan and {e pinned} weights.

    {2 The correctness anchor}

    At any checkpoint, serving a trace through the long-lived replica
    must match a replica built from scratch over the current snapshot:
    sampling depends only on (request id, graph), weights are pinned, and
    the patched CSR is structurally equal to a rebuilt one, so
    {!check_equivalence} observes agreement within floating-point
    reassociation (≤ 1e-6; bitwise in practice) — the property the
    qcheck suite drives over random delta traces, models and domain
    counts. *)

module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload

type t

val create :
  ?config:Serve.config -> ?obs:Hector_obs.t -> mg:Mutable_graph.t ->
  Hector_core.Inter_ir.program -> t
(** Warm the replica for [mg]'s current epoch: compile the plan (the one
    compile of the stream's life) and warm a block over the capacity
    graph, then swap in the current snapshot.  [config.weights] seeds the
    replica as usual ([[]] → generated from [config.seed]); every later
    epoch keeps them.  Raises [Invalid_argument] on unsupported programs
    (as {!Hector_serve.Serve.create}). *)

val apply : t -> Delta.t -> (Mutable_graph.apply_stats, string) result
(** Apply one delta now (a micro-batch boundary): mutate the graph, then
    refresh the replica in place, after growing its block to the new
    capacity graph when the epoch bumped.  [Error] (an invalid delta)
    changes nothing.
    The simulated cost of the update is accounted in {!update_ms}. *)

val serve : t -> Workload.request array -> Serve.response array
(** Run the trace on the live replica (semantics of
    {!Hector_serve.Serve.serve}: an independent episode on the simulated
    clock; stale seeds are rejected, not raised). *)

val check_equivalence :
  ?tol:float -> t -> Workload.request array -> (float, string) result
(** Serve [requests] through the live replica {e and} through a
    from-scratch replica over the current snapshot (same weights, same
    CSR), and compare: [Ok max_abs_diff] when every response pair agrees
    — same served/rejected/shed outcome, same output shape, outputs
    within [tol] (default [1e-6]) — [Error] describing the first
    disagreement otherwise. *)

val recompiles : t -> int
(** Plan-cache misses over the subsystem's lifetime: [1], the warmup
    compile — neither an in-slack delta nor an epoch re-warm compiles.
    The bench gate and a CLI test pin it at [1]. *)

val rewarms : t -> int
(** Replica re-warms (= epoch bumps observed). *)

val update_ms : t -> float
(** Simulated milliseconds spent applying deltas (host-side cost model:
    per-delta base + per-op cost, plus an epoch-rebuild surcharge). *)

val served : t -> int
(** Requests served over the subsystem's lifetime, every epoch included
    (the replica's one load ledger, {!Hector_serve.Serve.load_stats}). *)

val shed : t -> int

val rejected : t -> int

val replica : t -> Serve.t
(** The subsystem's one replica, the same for its whole life. *)

val checkpoint : t -> Hector_ckpt.Checkpoint.t
(** The subsystem's restorable state as a checkpoint: the pinned weight
    set plus the mutable graph's capacity epoch and delta version — what
    a restarted server needs to know which generation its weights belong
    to.  Persist it with {!Hector_ckpt.Checkpoint.save}. *)

val metrics_json : t -> Hector_json.t
(** JSON in the shared {!Hector_obs.Metrics} envelope
    ([subsystem = "stream"]): delta/op/epoch/compaction/CSR counters,
    recompiles and re-warms, update time, and the replica's
    served/shed/rejected and fault counters.  [launches] and
    [elapsed_ms] are the replica's engine's since warmup (plus the update
    time). *)
