(** Simulated inter-replica interconnect with two asynchronous transfer
    channels per engine.

    The distributed runtime never moves bytes between real devices; it
    schedules each transfer on the receiving replica's engine with a cost
    from the classic latency + bandwidth model

    {[ transfer_ms = messages · latency_us / 1000 + bytes / (bandwidth_gbs · 10⁹) · 10³ ]}

    — a per-message fixed cost (software stack + link traversal) plus the
    serialization time of the payload.  Defaults approximate one NVLink-class
    hop.

    Transfers are {e asynchronous}: {!post} enqueues one on a channel — a
    DMA-lane with its own busy-until timeline on the engine — and returns a
    {!handle}; {!wait} stalls the replica's clock only for the portion of
    the transfer that did not overlap with compute since the post.
    Transfers on different channels proceed concurrently; transfers on one
    channel queue in post order.

    Posted events are provenance-stamped pseudo-ops (origin ["dist.comms"],
    op ["halo_exchange"], ["allreduce"], …) in the {!Hector_gpu.Kernel.Comm}
    category: the launch and its traffic are recorded at post time, the
    exposed stall at wait time, so they appear in {!Hector_gpu.Stats.by_op},
    in [metrics_json] and on the chrome trace (one track per channel)
    exactly like compute kernels, and {!Hector_gpu.Stats.attributed_ms}
    still covers the whole clock. *)

type t = {
  latency_us : float;  (** per-message fixed cost, microseconds *)
  bandwidth_gbs : float;  (** link bandwidth, GB/s *)
  faults : Hector_ckpt.Fault.t option;
      (** fault-injection plan consulted at {!post}/{!wait}; [None] (the
          default) is the exact pre-fault code path *)
}

val create :
  ?latency_us:float ->
  ?bandwidth_gbs:float ->
  ?faults:Hector_ckpt.Fault.t ->
  unit ->
  t
(** Build an interconnect model.  Omitted parameters take the built-in
    defaults (5 µs, 25 GB/s, no fault plan).  Raises
    [Invalid_argument] on non-positive or NaN values.

    With a fault plan attached, each posted transfer may be {e dropped}
    (the sender retries after exponential backoff, burning the transfer
    time again, up to {!Hector_ckpt.Fault.max_attempts} attempts — the
    last always delivers) or {e delayed} by bounded jitter, and waits may
    observe an extra completion delay.  All injected cost rides the
    simulated clock through the same posted event, and every decision is
    recorded into the plan's trace. *)

val default : unit -> t
(** [create ()] — the built-in defaults. *)

val transfer_ms : t -> bytes:float -> float
(** Simulated duration of one message of the given payload size. *)

val cost_ms : t -> messages:int -> bytes:float -> float
(** Simulated duration of [bytes] split over [messages] messages (each
    message pays the per-message latency). *)

type handle
(** An in-flight (or already completed) transfer. *)

val post :
  t ->
  ?ready:float ->
  Hector_gpu.Engine.t ->
  chan:int ->
  op:string ->
  messages:int ->
  bytes:float ->
  handle
(** [post c engine ~chan ~op ~messages ~bytes] enqueues the transfer on
    channel [chan mod 2] of [engine] — callers address channels by peer or
    bucket index and the model folds them onto its two lanes.  The
    transfer starts when both the channel is free and the payload is
    ready ([ready], default: the engine clock at post time), and the
    clock does {e not} advance: launch count and traffic are recorded
    immediately, stall time is charged by {!wait}.  A zero-message post
    completes immediately.  Raises [Invalid_argument] on negative counts or
    channel. *)

val wait : handle -> unit
(** Block the posting engine until the transfer completes: the clock
    advances by the {e exposed} remainder (zero when compute already ran
    past the completion time), attributed to the transfer's op in the
    [Comm] category. *)

val completion_ms : handle -> float
(** Simulated completion time of the transfer (0 for the zero-message
    transfer) — the [ready] input for posting a dependent transfer. *)
