(** Deterministic seeded fault injection.

    A fault plan is the single authority on {e when} something breaks:
    subsystems that opt in (an interconnect via [Comms.create ?faults], a
    serving replica via its config, the {!Failover} training driver)
    consult it at named sites and record what happened into the plan's
    event trace.  Every probabilistic decision is a pure function of
    (seed, draw counter, site name), so the same seed over the same call
    sequence replays the {e identical} fault trace — recovery testing is
    reproducible bit-for-bit, which the qcheck determinism properties pin.

    Sites and their semantics:
    {ul
    {- {e message drop} ([Comms.post]) — the transfer attempt is lost; the
       sender retries with exponential backoff ({!backoff_ms}) riding the
       simulated clock, up to {!max_attempts} attempts (delivery is
       guaranteed on the last — a peer that never answers is the {e crash}
       site's job);}
    {- {e message delay} ([Comms.post]/[Comms.wait]) — bounded extra
       latency on the transfer or its completion;}
    {- {e replica crash} ([crash_at]) — a chosen replica dies at a chosen
       training step; survivors detect it by wait-timeout and run the
       {!Failover} recovery ladder;}
    {- {e serve engine failure} ([fail_batch]) — a micro-batch fails
       mid-execution; its requests are retried once, then shed (witnessed,
       never silently dropped).}}

    A disabled plan is simply its absence: every consulting subsystem
    stores a [t option] and the [None] branch is the exact pre-fault code
    path — zero extra launches, compiles or allocations (counter-pinned by
    the test suite). *)

type t

type outcome = Pass | Drop | Delay of float

(** What happened, in order — the witnessed fault/recovery trace. *)
type event =
  | Dropped of { site : string; attempt : int }
  | Delayed of { site : string; ms : float }
  | Crashed of { replica : int; step : int }
  | Detected of { replica : int; step : int; timeout_ms : float }
  | Restored of { step : int; parts : int; from_step : int }
  | Batch_failed of { batch : int }
  | Request_retried of { request : int }
  | Request_shed of { request : int }

val create :
  ?seed:int -> ?rate:float -> ?crash_at:int * int -> ?fail_batches:int list -> unit -> t
(** [create ~seed ~rate ~crash_at:(step, replica) ~fail_batches ()] builds
    a plan: [rate] is the per-message drop probability (and independently
    the delay probability) in [[0, 1]] (default 0 — only scheduled faults
    fire); [crash_at] schedules one replica crash; [fail_batches] names
    serve micro-batch indices that fail deterministically (batches also
    fail probabilistically under [rate]).  Raises [Invalid_argument] on a
    rate outside [[0, 1]] or negative crash coordinates. *)

val rate : t -> float
val crash_at : t -> (int * int) option

val message_outcome : t -> site:string -> outcome
(** Draw one message-level decision at a named site (advances the draw
    counter). *)

val fail_batch : t -> batch:int -> bool
(** Should this serve micro-batch fail?  True for scheduled
    [fail_batches] members and probabilistically under [rate]. *)

val uniform : t -> site:string -> float
(** Raw deterministic draw in [[0, 1)] — exposed for custom sites. *)

val max_attempts : int
(** Bounded-retry cap for dropped messages (the final attempt always
    delivers). *)

val backoff_ms : int -> float
(** Exponential backoff before retry [attempt] (0-based), in simulated
    milliseconds. *)

val record : t -> event -> unit
(** Append to the witnessed trace (counts {!retries} for [Dropped]). *)

val events : t -> event list
(** The trace, in occurrence order. *)

val retries : t -> int
(** Total dropped-message retries so far. *)

val trace : t -> string list
(** [events] rendered, for logs and determinism comparisons. *)
