(** Spans-and-counters instrumentation.

    An [Obs.t] handle collects two kinds of evidence about a run:

    - {e spans}: nested wall-clock intervals ({!time}) — compiler passes,
      plan executions, benchmark phases.  Spans form a tree: a [time] call
      made while another is active becomes its child.
    - {e counters}: named integer accumulators ({!add}) — launch counts,
      cache hits, anything cheap enough to bump on a hot path.

    The handle is threaded {e explicitly} through the stack
    (Compiler → Lowering, Engine → Exec → Session) instead of via global
    state or booleans, so concurrent sessions never share instrumentation.

    {2 Overhead guarantee}

    Every entry point first tests {!enabled}.  On the shared {!disabled}
    handle (and any handle created with [~enabled:false]) the calls return
    immediately without allocating: [add] is a branch on an immediate, and
    [time f] is exactly [f ()].  Hot paths may therefore call into this
    module unconditionally. *)

type t
(** An instrumentation handle (mutable). *)

type span = {
  name : string;  (** e.g. ["lowering"], ["forward"] *)
  kind : string;  (** taxonomy bucket: ["pass"], ["run"], ["bench"], ... *)
  start_ms : float;  (** wall-clock start, relative to the handle's creation *)
  duration_ms : float;
  children : span list;  (** sub-spans, in start order *)
}
(** One completed interval of the span tree. *)

val disabled : t
(** The canonical no-op handle: never records, never allocates. *)

val create : ?enabled:bool -> unit -> t
(** Fresh handle (default [enabled:true]).  [create ~enabled:false ()]
    returns {!disabled}. *)

val enabled : t -> bool
(** Whether this handle records anything. *)

val time : t -> kind:string -> string -> (unit -> 'a) -> 'a
(** [time t ~kind name f] runs [f] and records its wall-clock duration as a
    span.  Nested calls build the span tree.  The span is recorded even
    when [f] raises (the exception is re-raised).  On a disabled handle
    this is exactly [f ()]. *)

val add : t -> string -> int -> unit
(** [add t name n] bumps counter [name] by [n].  No-op (and allocation
    free) when disabled. *)

val counter : t -> string -> int
(** Current value of a counter (0 if never bumped). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val spans : t -> span list
(** Completed top-level spans in start order (children nested). *)

val reset : t -> unit
(** Drop all recorded spans and counters; the time origin is kept. *)

(** {2 Export}

    Documents are {!Hector_json.t} values; {!Hector_json.to_string} prints
    them. *)

val spans_json : t -> Hector_json.t
(** The span tree as a JSON array:
    [[{"name":..,"kind":..,"start_ms":..,"duration_ms":..,"children":[..]},..]]. *)

val counters_json : t -> Hector_json.t
(** The counters as a JSON object, sorted by name. *)

val trace_json : t -> pid:int -> Hector_json.t list
(** The span tree flattened to Chrome-tracing complete events (["ph":"X"]),
    one object per span, under process id [pid].  Timestamps are
    wall-clock microseconds relative to the handle's creation, so they live
    on a separate timeline from simulated kernel events. *)

val trace_events : t -> pid:int -> string list
(** {!trace_json}, each event printed by {!Hector_json.to_string}. *)

(** {2 Shared metrics schema}

    Every subsystem-level [metrics_json] (session, serving, distributed,
    stream) builds its document through this module, so the cross-cutting
    keys are uniform: ["subsystem"], ["elapsed_ms"], ["launches"], and a
    ["comm"] object with ["posted_ms"], ["exposed_ms"] and
    ["overlap_ratio"] ([1 − exposed/posted], 0 when nothing was posted).
    Subsystem-specific keys ride along as extra fields. *)
module Metrics : sig
  val comm : posted_ms:float -> exposed_ms:float -> Hector_json.t
  (** The uniform ["comm"] object: total posted transfer time, the exposed
      (non-overlapped) part actually charged to the clock, and the overlap
      ratio between them. *)

  val envelope :
    subsystem:string ->
    elapsed_ms:float ->
    launches:int ->
    (string * Hector_json.t) list ->
    Hector_json.t
  (** The shared envelope: [{"subsystem":..,"elapsed_ms":..,"launches":..,
      <fields>}] — the schema the metrics drift test pins across
      subsystems. *)
end
