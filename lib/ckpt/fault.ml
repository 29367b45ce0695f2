type outcome = Pass | Drop | Delay of float

type event =
  | Dropped of { site : string; attempt : int }
  | Delayed of { site : string; ms : float }
  | Crashed of { replica : int; step : int }
  | Detected of { replica : int; step : int; timeout_ms : float }
  | Restored of { step : int; parts : int; from_step : int }
  | Batch_failed of { batch : int }
  | Request_retried of { request : int }
  | Request_shed of { request : int }

type t = {
  seed : int;
  rate : float;
  crash : (int * int) option;
  fail_batches : int list;
  mutable draws : int;
  mutable events_rev : event list;
  mutable retries : int;
}

let create ?(seed = 1) ?(rate = 0.0) ?crash_at ?(fail_batches = []) () =
  if rate < 0.0 || rate > 1.0 || not (Float.is_finite rate) then
    invalid_arg "Fault.create: rate must be a probability in [0, 1]";
  (match crash_at with
  | Some (step, replica) when step < 0 || replica < 0 ->
      invalid_arg "Fault.create: crash_at step and replica must be non-negative"
  | _ -> ());
  { seed; rate; crash = crash_at; fail_batches; draws = 0; events_rev = []; retries = 0 }

let rate t = t.rate
let crash_at t = t.crash

(* --- deterministic draws ------------------------------------------------

   Every probabilistic decision is a pure function of (plan seed, draw
   counter, site name): the same seed over the same call sequence replays
   the identical fault trace — the property the determinism tests pin.
   splitmix64 finalizer, as in {!Hector_tensor.Rng}. *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform t ~site =
  let h = Int64.of_int (Hashtbl.hash site) in
  let x =
    mix64
      (Int64.logxor
         (Int64.add (Int64.of_int t.seed)
            (Int64.mul (Int64.of_int (t.draws + 1)) 0x9e3779b97f4a7c15L))
         (Int64.mul h 0xff51afd7ed558ccdL))
  in
  t.draws <- t.draws + 1;
  Int64.to_float (Int64.shift_right_logical x 11) /. 9007199254740992.0

(* One message-level decision: with probability [rate] the message is
   dropped (the sender retries after backoff), with probability [rate] it
   is delayed by a bounded jitter instead. *)
let message_outcome t ~site =
  if t.rate <= 0.0 then Pass
  else
    let u = uniform t ~site in
    if u < t.rate then Drop
    else if u < 2.0 *. t.rate then Delay (0.02 +. (0.18 *. uniform t ~site))
    else Pass

let fail_batch t ~batch =
  List.mem batch t.fail_batches
  || (t.rate > 0.0 && uniform t ~site:"serve.batch" < t.rate)

(* --- bounded retry ------------------------------------------------------ *)

let max_attempts = 4
let backoff_ms attempt = 0.05 *. Float.of_int (1 lsl attempt)

(* --- the witnessed trace ------------------------------------------------ *)

let record t e =
  (match e with Dropped _ -> t.retries <- t.retries + 1 | _ -> ());
  t.events_rev <- e :: t.events_rev

let events t = List.rev t.events_rev
let retries t = t.retries

let event_to_string = function
  | Dropped { site; attempt } -> Printf.sprintf "dropped(%s,attempt=%d)" site attempt
  | Delayed { site; ms } -> Printf.sprintf "delayed(%s,%.3fms)" site ms
  | Crashed { replica; step } -> Printf.sprintf "crashed(replica=%d,step=%d)" replica step
  | Detected { replica; step; timeout_ms } ->
      Printf.sprintf "detected(replica=%d,step=%d,timeout=%.3fms)" replica step timeout_ms
  | Restored { step; parts; from_step } ->
      Printf.sprintf "restored(step=%d,parts=%d,from=%d)" step parts from_step
  | Batch_failed { batch } -> Printf.sprintf "batch_failed(%d)" batch
  | Request_retried { request } -> Printf.sprintf "request_retried(%d)" request
  | Request_shed { request } -> Printf.sprintf "request_shed(%d)" request

let trace t = List.map event_to_string (events t)
