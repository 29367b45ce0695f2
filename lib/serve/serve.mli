(** An inference serving replica: dynamic micro-batching, plan caching and
    admission control over the existing compile/execute stack.

    A replica binds one model program to one parent graph.  Requests (seed
    node sets, from {!Workload} or elsewhere) are admitted into a bounded
    queue; the batch former coalesces up to [max_batch] of them — waiting
    at most [max_wait_ms] past the oldest arrival — into ONE k-hop sampled
    block ({!Hector_graph.Sampler.sample_union}), runs a single batched
    forward, and scatters each request's seed rows back out of the output.
    The whole loop runs on the simulated clock: arrivals, queueing and
    service all happen in deterministic simulated milliseconds, so a trace
    always produces the same latencies, shed set and outputs.

    {2 Steady-state guarantees}

    Warmup ({!create}) compiles the plan into a {!Plan_cache}, charges
    weights, parent features and parent-capacity staging tensors once, and
    primes an {!Hector_runtime.Exec.slab} with arena backings sized for
    the parent graph — an upper bound on every sampled block.  After that,
    serving performs {e zero compiles} (witnessed by {!Plan_cache.misses})
    and {e zero plan-buffer allocations} (witnessed by
    {!Hector_gpu.Memory.alloc_count} against {!warm_alloc_count}): every
    per-block executor binds prefix views of cached backings.

    {2 Batched ≡ one-at-a-time}

    When [fanout] covers every in-degree ({!exact_fanout}) and [hops] is
    at least the model depth, every block contains the full receptive
    field of its seeds, so per-request outputs are independent of which
    requests share a batch: a [max_batch = 1] replica returns the same
    outputs to within floating-point reassociation (≤ 1e-6) — the
    equivalence the test suite pins at 1, 2 and 4 domains. *)

module Tensor = Hector_tensor.Tensor

type config = {
  model : string;  (** plan-cache key; name of the served model *)
  fanout : int;  (** sampler in-edge cap per node per hop *)
  hops : int;  (** sampling depth; use >= model layers for exactness *)
  max_batch : int option;
      (** micro-batch size cap; [None] → [HECTOR_SERVE_BATCH] knob, else 8 *)
  max_wait_ms : float;  (** batching deadline past the oldest queued arrival *)
  queue_capacity : int option;
      (** admission bound; [None] → [HECTOR_SERVE_QUEUE] knob, else 64 *)
  options : Hector_core.Compiler.options option;
      (** compiler options ([training] is forced off); [None] → the
          tuning-database / autotune ladder below, else default options *)
  autotune : bool;
      (** on a tuning-database miss, run a full warmup search (schedule
          knobs included) and record the winner back; with this off the
          miss path uses fixed default options — admission {e never}
          searches unless [autotune] asks for it, and a warm DB hit never
          searches or compiles candidates at all (ignored when [options]
          is given) *)
  tune_db : string option;
      (** persistent {!Hector_runtime.Tuning_db} path consulted at
          admission (exact signature hit, then nearest bucket, then the
          [autotune] policy above); [None] → the [HECTOR_TUNE_DB] knob *)
  device : Hector_gpu.Device.t;
  seed : int;  (** weight/feature initialization seed *)
  weights : (string * Tensor.t) list;
      (** explicit model weights, overriding the seeded initialization —
          how the streaming subsystem pins one weight set across capacity
          epochs ([[]], the default, generates from [seed]) *)
  epoch : int;
      (** capacity-epoch tag stamped onto the replica's arena slab
          ({!Hector_runtime.Exec.slab_epoch}) — bookkeeping for the
          streaming invalidation protocol: backings tagged with an epoch
          survive every in-slack {!update_graph} and are retired wholesale
          when the epoch advances (default [0] for non-streaming use) *)
  faults : Hector_ckpt.Fault.t option;
      (** engine-failure injection plan ([None], the default, falls back
          to {!Hector_ckpt.Fault.of_knobs} — usually disabled).  A batch
          the plan fails charges its full cost but loses its outputs; its
          requests are retried once at the head of the queue, then shed —
          counted in {!fault_shed} (and {!shed}) and recorded into the
          plan's trace, never silently dropped.  Without a plan the
          serving loop is the exact pre-fault code path. *)
}

val default_config : config
(** rgcn, fanout 8, hops 2, knob-driven batch/queue bounds, 20 ms wait,
    default options, RTX 3090, seed 1. *)

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
(** Build and warm a replica: compile (through the plan cache), initialize
    weights and parent features (from [config.seed]), prime the arena slab
    and staging at parent capacity, then reset the engine clock so metrics
    cover serving only.  Warmup charges weights, features, a (zero,
    never-read) parent ["norm"] and staging, and primes the slab; it runs
    no forward.  [features] ([num_nodes × feature_dim]) replaces the
    seeded feature draw and is adopted, not copied — {!update_graph}
    overwrites it in place.  Skipping the draw moves the seeded weights
    drawn after it, so pass [features] with pinned [config.weights] where
    weights must match a seeded replica — as a streaming re-warm does,
    passing zeros that the next snapshot overwrites.
    [obs] (default: knob-driven like {!Hector_runtime.Session}) receives
    [serve.*] counters and batch spans.  The model must declare exactly
    one node input; the only edge input supported is the conventional
    ["norm"] (recomputed per block).  Raises [Invalid_argument] on
    unsupported programs, non-positive bounds or a [features] matrix of
    the wrong shape (before any session is built). *)

val update_graph :
  t ->
  graph:Hector_graph.Hetgraph.t ->
  ?features:Tensor.t ->
  ?csr:Hector_graph.Csr.t ->
  unit ->
  (unit, string) result
(** Swap the served graph for a newer snapshot of the same logical graph —
    the in-slack path of {!Hector_stream}.  Within the warm capacity
    ({!node_capacity}/{!edge_capacity}, the warmup graph's sizes) this
    performs {e zero} compiles and {e zero} allocations: the cached plan,
    slab backings and staging tensors all survive; [features] (which must
    be [num_nodes × feature_dim]) is copied into the existing parent
    feature storage in place, and [csr] (which must be [Csr.incoming
    graph] — e.g. the mutable graph's incrementally patched one) replaces
    the cached adjacency, rebuilt from [graph] when omitted.  Returns
    [Error] without changing anything if the snapshot exceeds the warm
    capacity or its metagraph shape differs — the epoch boundary, where
    the caller re-warms a fresh replica instead. *)

val serve : t -> Workload.request array -> response array
(** Run the discrete-event loop over one arrival trace (sorted by
    arrival; raises [Invalid_argument] otherwise) and return one response
    per request, in trace order.  Each call is an independent episode
    starting at simulated time 0; plan cache, slab, weights and load
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
    counts, mean batch size, throughput (req/s), latency p50/p95/p99/mean,
    mean queue wait, batch-size histogram, plan cache hits/misses, kernel
    launches per served request, allocator [alloc_count] and accumulated
    simulated time. *)

val exact_fanout : Hector_graph.Hetgraph.t -> int
(** The smallest fanout that keeps every incoming edge of any node — with
    [hops >= ] model depth this makes batching exact (see above). *)

val launches : t -> int
(** Simulated kernel launches since warmup. *)

val engine : t -> Hector_gpu.Engine.t
(** The replica's persistent engine (clock, stats, memory). *)

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

val graph : t -> Hector_graph.Hetgraph.t
(** The snapshot currently served (the latest {!update_graph}, or the
    creation graph). *)

val slab : t -> Hector_runtime.Exec.slab
(** The replica's arena slab, primed at warmup; every per-block executor
    binds prefix views of its backings. *)

val slab_epoch : t -> int
(** The capacity epoch the replica's slab backings are pinned to
    ([config.epoch]). *)

val node_capacity : t -> int
(** Warm node capacity: the warmup graph's node count, the bound
    {!update_graph} enforces. *)

val edge_capacity : t -> int

val model_weights : t -> (string * Tensor.t) list
(** The replica's weights (generated or from [config.weights]) — what a
    streaming driver passes to the next epoch's replica so outputs stay
    comparable across re-warms. *)

val batches : t -> int

val warm_alloc_count : t -> int
(** {!Hector_gpu.Memory.alloc_count} right after warmup — steady-state
    serving must leave the live counter equal to this. *)

val max_batch : t -> int
(** The resolved micro-batch cap (config, knob or default). *)

val queue_capacity : t -> int
(** The resolved admission bound. *)
