(** Data-parallel replicated execution over a partitioned graph.

    [create] splits a graph with {!Hector_graph.Partition} (an even split,
    no balance slack), then builds one {e replica} per partition: a full
    executor stack (own RTX 3090 engine with its own simulated clock,
    statistics and memory; sessions through the standard
    {!Hector_runtime.Session} path) over the partition's local
    subgraph.  Replicas are assumed to run concurrently;
    the cluster-level simulated time is the {e maximum} of the replica
    clocks.

    {b Schedule.}  Transfers are asynchronous: halo exchanges and gradient
    all-reduces are {!Comms.post}ed on concurrent channels and waited at
    first use, so they hide behind compute — layer-0 halos are prefetched
    a whole epoch ahead (the features are static), and backward emits
    64 KiB gradient buckets whose ring all-reduce is posted as soon as
    every replica has passed the bucket's last gradient-producing step.
    Each replica's training step is the single-device body,
    {!Hector_runtime.Train.loss_and_grads}, over its owned rows.

    {b Exactness.}  Every edge lives in the partition owning its
    destination, so each replica holds the complete in-neighborhood of its
    owned nodes; halo rows (boundary sources owned elsewhere) receive their
    feature values from the owning replica before every layer.  Owned
    output rows are therefore {e exactly} the rows a single-replica run
    produces (up to floating-point reassociation), for any partition count.
    Training replicates this for gradients: each replica computes the NLL
    over its owned rows only (normalized by the {e global} node count), the
    per-replica weight gradients — linear in those masked seed gradients —
    are summed in fixed replica order, bucket by bucket, and broadcast
    back, and every replica applies the same summed gradient
    in its SGD step, so weights stay identical across replicas.

    {b Cost model.}  Halo exchanges and gradient all-reduces go through
    {!Comms} as [Comm]-category pseudo-ops (["halo_exchange"],
    ["allreduce"]) on the receiving replica's engine: the launch and its
    traffic are recorded when posted, and only the {e exposed} (non-
    overlapped) time is charged to the clock at the wait, so
    [Stats.attributed_ms = Engine.elapsed_ms] keeps holding per replica and
    the [Comm] share shrinks as overlap improves.

    Replicas compile nothing (they run the plans they are given) and, after
    the first step, allocate no plan-buffer storage: every layer session's
    arenas are warmed at creation, so steady-state epochs leave
    {!Hector_gpu.Memory.alloc_count} unchanged on every replica. *)

module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine

(** Cluster construction options, mirroring {!Hector_runtime.Session.Config}:
    build one with [{ Config.default with ... }]. *)
module Config : sig
  type t = {
    parts : int option;  (** partitions/replicas; [None] → 2 *)
    comms : Comms.t option;  (** interconnect model; [None] → {!Comms.default} *)
    seed : int;  (** master-weight Glorot seed *)
    obs : Hector_obs.t option;
        (** observability handle shared by all replica engines; [None] →
            off *)
    weights : (string * Tensor.t) list list option;
        (** per-layer master weight stacks to start from instead of the
            Glorot draw — the checkpoint-restore path ([None] = draw from
            the seed; layers beyond the list length still draw) *)
  }

  val default : t
  (** Two parts, {!Comms.default}, seed 1, observability off, seeded
      weights. *)
end

type t

val create :
  ?config:Config.t ->
  features:Tensor.t ->
  graph:Hector_graph.Hetgraph.t ->
  Hector_core.Compiler.compiled list ->
  t
(** [create ~config ~features ~graph layers] partitions [graph] and builds
    the replicas.  [layers] is the non-empty stack of compiled single-layer
    programs executed in order, each declaring exactly one node input
    (edge inputs are restricted to the conventional ["norm"], recomputed
    per partition — an exact restriction, because every local edge has an
    owned destination with its complete in-neighborhood); the node-input
    width of each layer must match the previous layer's output width, and
    the first must match [features] (one row per parent node).

    All options live in [config] (default {!Config.default}).

    Master weights are drawn once (Glorot, from the seed) and deep-copied
    into every replica, so all replicas start identical; retrieve them with
    {!master_weights} to build a bit-identical reference session.  Setting
    [Config.weights] (per-layer stacks, e.g. from a loaded
    {!Hector_ckpt.Checkpoint}) replaces the draw — the restore path used
    by {!Failover} recovery.  Raises
    [Invalid_argument] on unsupported programs, mismatched widths or a
    partition count below 1. *)

val parts : t -> int
val partition : t -> Hector_graph.Partition.t
val comms : t -> Comms.t

val forward : t -> Tensor.t
(** Run one layer-wise forward pass: for each layer, exchange halo rows
    (posted on concurrent channels and waited at first use), run the
    layer on every replica; finally assemble the owned output rows into parent
    node order.  The returned tensor (one row per parent node) is owned by
    the cluster and valid until the next [forward] or {!train_step}
    call. *)

val train_step : t -> ?lr:float -> labels:int array -> unit -> float
(** One data-parallel training step: halo exchange, then on every
    replica {!Hector_runtime.Train.loss_and_grads} — forward, masked NLL
    over owned rows against [labels] (one class per {e parent} node,
    normalized by the global node count), backward — then a ring
    all-reduce of the weight gradients (each replica is charged
    [2·(parts−1)] messages of [bytes/parts] per bucket) and synchronized
    SGD.  Bucket transfers are posted mid-backward and the next epoch's
    layer-0 halo exchange is already in flight.  Returns the global loss (the sum of
    the per-replica masked losses).  Requires exactly one layer, compiled
    with [training = true]; raises [Invalid_argument] otherwise. *)

val master_weights : t -> (string * Tensor.t) list list
(** Per layer, the initial master weight stacks (the values every replica
    started from — {e not} live: training updates replica copies only).
    Pass these to a reference {!Hector_runtime.Session} to reproduce the
    cluster bit-for-bit. *)

val weights_of : t -> int -> (string * Tensor.t) list
(** Live weight stacks of one replica's (single) training layer — after
    any number of steps these are identical across replicas. *)

val engines : t -> Engine.t array
(** Per-replica engines (clock, statistics, memory), index = partition. *)

val elapsed_ms : t -> float
(** Cluster simulated time: the maximum replica clock. *)

val comm_ms : t -> float
(** {e Exposed} interconnect time summed across replicas ([Comm] category
    — the stall time actually charged to clocks). *)

val posted_comm_ms : t -> float
(** Total posted transfer time summed across replicas — the overlapped
    part is [posted_comm_ms − comm_ms]. *)

val busy_ms : t -> float
(** Total attributed time summed across replicas (compute + exposed comm +
    sync) — the denominator-side aggregate for comm/compute ratios. *)

val launches : t -> int
(** Total kernel launches summed across replicas since the last
    {!reset_clocks} — the per-epoch launch count when divided by the
    epochs run. *)

val alloc_counts : t -> int array
(** Per-replica {!Hector_gpu.Memory.alloc_count} — constant across
    steady-state epochs. *)

val reset_clocks : t -> unit
(** Zero every replica's clock and statistics (e.g. after warm-up) and
    drop any prefetched halo transfers — the next epoch posts afresh. *)

val metrics_json : t -> Hector_json.t
(** JSON in the shared {!Hector_obs.Metrics} envelope
    (["subsystem"], ["elapsed_ms"], ["launches"], ["comm"]): partition
    stats (parts, edge-cut fraction, balance), cluster times, and a
    per-replica array of elapsed/comm/alloc/launch figures. *)
