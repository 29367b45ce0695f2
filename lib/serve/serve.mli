(** An inference serving replica: dynamic micro-batching, plan caching and
    admission control over the existing compile/execute stack.

    A replica binds one model program to one parent graph.  Requests (seed
    node sets, from {!Workload} or elsewhere) are admitted into a bounded
    queue; the batch former coalesces up to [max_batch] of them — waiting
    at most [max_wait_ms] past the oldest arrival — into ONE k-hop sampled
    block ({!Hector_graph.Sampler.sample_union}), runs a single batched
    forward, and scatters each request's seed rows back out of the output.
    A block is sampled only as deep as the forward reads: [hops] is an
    upper bound, clamped to the forward program's receptive depth
    ({!Hector_core.Inter_ir.receptive_depth}, computed once per replica)
    and to at least one hop.  Hops are drawn in order
    ({!Hector_graph.Sampler.sample}), so the seeds' outputs are bit for
    bit those of a block sampled at [hops].
    The whole loop runs on the simulated clock: arrivals, queueing and
    service all happen in deterministic simulated milliseconds, so a trace
    always produces the same latencies, shed set and outputs.

    {2 Steady-state guarantees}

    Warmup ({!create}) compiles the plan into a {!Plan_cache} and warms a
    {!Hector_runtime.Block} replica at parent capacity.  After that,
    serving performs {e zero compiles} ({!Plan_cache.misses}) and {e zero}
    device allocations ({!Hector_gpu.Memory.alloc_count} against
    {!warm_alloc_count}).  Each projected feature row [h\[u\] · W\[s\]]
    is computed on the host once per replica, not once per batch
    ({!Hector_runtime.Row_reuse}), until {!update_graph} writes node
    [u]'s features; the device is still charged every batch's full GEMM.

    {2 Batched ≡ one-at-a-time}

    When [fanout] covers every in-degree ({!exact_fanout}) and [hops] is
    at least the forward program's receptive depth, every block contains the full receptive
    field of its seeds, so per-request outputs are independent of which
    requests share a batch: a [max_batch = 1] replica returns the same
    outputs to within floating-point reassociation (≤ 1e-6) — the
    equivalence the test suite pins at 1, 2 and 4 domains. *)

module Tensor = Hector_tensor.Tensor

type config = {
  model : string;  (** plan-cache key; name of the served model *)
  fanout : int;  (** sampler in-edge cap per node per hop *)
  hops : int;
      (** upper bound on the sampling depth: a batch samples
          [max 1 (min hops depth)] hops when the forward program's
          receptive depth is known, else [hops]; use at least that depth
          for exactness *)
  max_batch : int option;
      (** micro-batch size cap; [None] → 8 *)
  max_wait_ms : float;  (** batching deadline past the oldest queued arrival *)
  queue_capacity : int option;
      (** admission bound; [None] → 64 *)
  options : Hector_core.Compiler.options option;
      (** compiler options ([training] is forced off); [None] → the
          tuning-database ladder below, else default options *)
  tune_db : string option;
      (** persistent {!Hector_runtime.Tuning_db} path consulted at
          admission (exact signature hit, then nearest bucket, then
          default options; admission never searches); [None] (the
          default) → no database (ignored when [options] is given) *)
  seed : int;  (** weight/feature initialization seed *)
  weights : (string * Tensor.t) list;
      (** explicit model weights, overriding the seeded initialization —
          how the streaming subsystem pins one weight set across capacity
          epochs ([[]], the default, generates from [seed]) *)
  faults : Hector_ckpt.Fault.t option;
      (** engine-failure injection plan ([None], the default, injects
          nothing).  A batch
          the plan fails charges its full cost but loses its outputs; its
          requests are retried once at the head of the queue, then shed —
          counted in {!fault_shed} (and {!shed}) and recorded into the
          plan's trace, never silently dropped.  Without a plan the
          serving loop is the exact pre-fault code path. *)
}

val default_config : config
(** rgcn, fanout 8, hops 2, batch/queue bounds unset (8 / 64), 20 ms
    wait, default options, no tuning database, seed 1, no fault plan.
    Replicas run on an RTX 3090. *)

type response = {
  request : Workload.request;
  output : Tensor.t option;
      (** [seeds × out_dim] rows for the request's seed nodes, in request
          order; [None] when the request was shed *)
  batch_size : int;  (** size of the batch that served it; 0 when shed *)
  queue_ms : float;  (** admission → dispatch (simulated) *)
  sample_ms : float;  (** block sampling, host cost model (whole batch) *)
  transfer_ms : float;  (** staged-input PCIe transfer (whole batch) *)
  compute_ms : float;  (** batched forward on the engine (whole batch) *)
  latency_ms : float;  (** arrival → batch completion *)
}

type t

val create :
  ?config:config -> ?obs:Hector_obs.t -> ?features:Tensor.t ->
  graph:Hector_graph.Hetgraph.t -> Hector_core.Inter_ir.program -> t
(** Build and warm a replica: compile (through the plan cache), then warm
    a {!Hector_runtime.Block} replica over [graph] (weights and features
    seeded from [config.seed], executor arenas and staging primed at
    parent capacity, no forward run, clock reset).  [features]
    ([num_nodes × feature_dim]) replaces the seeded feature draw and is
    adopted, not copied — {!update_graph} overwrites it in place until a
    {!rewarm} replaces the store, and the caller must not write it
    otherwise.
    Skipping the draw moves the seeded weights drawn after it, so pass
    [features] with pinned [config.weights] where weights must match a
    seeded replica.  [obs] (default
    {!Hector_obs.disabled}) receives [serve.*] counters and batch spans.
    Raises [Invalid_argument] on programs {!Hector_runtime.Block.inputs}
    rejects, a [features] matrix of the wrong shape, non-positive bounds
    or a negative or NaN [max_wait_ms], before any session is built. *)

val update_graph :
  t ->
  graph:Hector_graph.Hetgraph.t ->
  ?features:Tensor.t ->
  ?rows:int array ->
  ?csr:Hector_graph.Csr.t ->
  unit ->
  (unit, string) result
(** Swap the served graph for a newer snapshot of the same logical graph —
    the in-slack path of {!Hector_stream}.  Within the warm capacity (the
    warmup graph's node and edge counts) this performs {e zero} compiles
    and {e zero} allocations: the cached plan, the executor and its arena
    backings, and the staging tensors all survive.  [features] (which must be [num_nodes ×
    feature_dim]) is copied into the existing parent feature storage in
    place: only the written rows [rows], when given — the rows that
    differ from the features the replica holds, under an unchanged node
    numbering — else the whole matrix.  The replica's projected rows
    ({!Hector_runtime.Row_reuse}) of the written rows go stale; an update
    without [rows] makes every one stale.  [csr] (which must be
    [Csr.incoming graph] — e.g. the mutable graph's incrementally patched
    one) replaces the cached adjacency, rebuilt from [graph] when omitted.
    Returns [Error] without changing anything if the snapshot exceeds the
    warm capacity or its metagraph shape differs — the epoch boundary,
    where the caller calls {!rewarm} with a larger capacity graph instead —
    or if [rows] is given without [features] or names a row outside the
    snapshot. *)

val rewarm :
  t ->
  capacity:Hector_graph.Hetgraph.t ->
  graph:Hector_graph.Hetgraph.t ->
  features:Tensor.t ->
  csr:Hector_graph.Csr.t ->
  (unit, string) result
(** Re-warm the replica over a new capacity graph and install a snapshot
    on it — the epoch-boundary path of {!Hector_stream}.  The replica's
    block grows to [capacity] in place ({!Hector_runtime.Block.resize}),
    keeping its engine, executor, compiled plan and weights, so nothing
    recompiles; then [graph], [features] (every row) and [csr] go in as
    {!update_graph} would install them.  [capacity] is only sized
    against, never served, so no CSR of it is built.  Every counter, the
    plan cache and the fault plan keep running; {!warm_alloc_count}
    becomes the count after the growth.  Returns [Error] without changing
    anything when the snapshot would not fit [capacity] (node or edge
    count, metagraph shape or feature shape). *)

val serve : t -> Workload.request array -> response array
(** Run the discrete-event loop over one arrival trace (sorted by
    arrival; raises [Invalid_argument] otherwise) and return one response
    per request, in trace order.  Each call is an independent episode
    starting at simulated time 0; plan cache, executor, weights and load
    accounting persist across calls.  Requests whose seeds are empty or
    out of range for the {e current} snapshot (e.g. a node tombstoned by
    a delta since the client drew its ids) are {e rejected} — counted in
    {!rejected}, response output [None] — rather than raising. *)

type load_stats = {
  requests : int;  (** all requests seen (served + shed) *)
  lserved : int;
  lshed : int;
  lbatches : int;
  mean_batch : float;  (** served / batches *)
  throughput_rps : float;  (** served per simulated second *)
  p50_ms : float;  (** latency percentiles over served requests *)
  p95_ms : float;
  p99_ms : float;
  mean_latency_ms : float;
  mean_queue_ms : float;
  launches_per_request : float;
  batch_histogram : (int * int) list;  (** (batch size, count), ascending *)
}

val load_stats : t -> load_stats
(** Numeric load report accumulated over all [serve] calls (what
    {!metrics_json} serializes). *)

val metrics_json : t -> Hector_json.t
(** JSON load report accumulated over all [serve] calls, in
    the shared {!Hector_obs.Metrics} envelope (["subsystem"],
    ["elapsed_ms"], ["launches"], ["comm"]): request/served/shed/batch
    counts, the hop bound and the hops each batch samples, mean batch
    size, throughput (req/s), latency p50/p95/p99/mean,
    mean queue wait, batch-size histogram, plan cache hits/misses, kernel
    launches per served request, allocator [alloc_count] and accumulated
    simulated time. *)

val exact_fanout : Hector_graph.Hetgraph.t -> int
(** The smallest fanout that keeps every incoming edge of any node — with
    [hops] at least the receptive depth this makes batching exact (see
    above). *)

val launches : t -> int
(** Simulated kernel launches of the replica's engine since warmup. *)

val device_ms : t -> float
(** Simulated engine time since warmup. *)

val engine : t -> Hector_gpu.Engine.t
(** The replica's engine (clock, stats, memory), the same for its whole
    life. *)

val plan_cache : t -> Plan_cache.t

val obs : t -> Hector_obs.t

val served : t -> int

val shed : t -> int

val rejected : t -> int
(** Requests refused for invalid seeds (see {!serve}); disjoint from
    {!shed}. *)

val batch_failures : t -> int
(** Micro-batches that failed mid-execution under fault injection (cost
    charged, outputs lost, members retried). *)

val fault_shed : t -> int
(** Requests shed because their retry after a batch failure also failed —
    a subset of {!shed}, so [served + shed + rejected] still accounts for
    every request. *)

val faults : t -> Hector_ckpt.Fault.t option
(** The replica's fault plan, if any — its event trace witnesses every
    failure, retry and shed decision. *)

val exec : t -> Hector_runtime.Exec.t
(** The replica's one executor, its arenas warmed at parent capacity
    (grown by each {!rewarm}); every batch rebinds it to its block. *)

val model_weights : t -> (string * Tensor.t) list
(** The replica's weights (generated or from [config.weights]), the same
    tensors for the replica's whole life: {!rewarm} keeps them, so outputs
    stay comparable across capacity epochs. *)

val batches : t -> int

val warm_alloc_count : t -> int
(** {!Hector_gpu.Memory.alloc_count} of the engine right after the last
    warmup ({!create} or {!rewarm}) — steady-state serving must leave the
    live counter equal to this. *)

val max_batch : t -> int
(** The resolved micro-batch cap (config or default). *)

val queue_capacity : t -> int
(** The resolved admission bound. *)
