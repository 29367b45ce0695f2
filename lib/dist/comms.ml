module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Fault = Hector_ckpt.Fault

type t = {
  latency_us : float;
  bandwidth_gbs : float;
  faults : Fault.t option;
}

let default_latency_us = 5.0
let default_bandwidth_gbs = 25.0
let channels = 2

let create ?latency_us ?bandwidth_gbs ?faults () =
  let latency_us = Option.value latency_us ~default:default_latency_us in
  let bandwidth_gbs = Option.value bandwidth_gbs ~default:default_bandwidth_gbs in
  if not (latency_us > 0.0) then
    invalid_arg (Printf.sprintf "Comms.create: latency_us must be positive (got %g)" latency_us);
  if not (bandwidth_gbs > 0.0) then
    invalid_arg
      (Printf.sprintf "Comms.create: bandwidth_gbs must be positive (got %g)" bandwidth_gbs);
  { latency_us; bandwidth_gbs; faults }

let default () = create ()

let transfer_ms c ~bytes =
  (c.latency_us /. 1e3) +. (bytes /. (c.bandwidth_gbs *. 1e9) *. 1e3)

let cost_ms c ~messages ~bytes =
  (float_of_int messages *. c.latency_us /. 1e3)
  +. (bytes /. (c.bandwidth_gbs *. 1e9) *. 1e3)

(* A completed-or-pending transfer.  [Done] is the zero-message transfer:
   waiting on it is free, so call sites need no special-casing. *)
type handle =
  | Done
  | Pending of {
      engine : Engine.t;
      op : string;
      completion_ms : float;
      faults : Fault.t option;
    }

(* Fault injection at the post site: each dropped attempt burns the full
   transfer time plus an exponential backoff before the retry, all riding
   the same posted event (one launch either way — the zero-overhead pin
   only concerns the no-plan path, which never reaches here).  The final
   attempt always delivers; a peer that never answers is modelled by the
   crash site in {!Failover}, not here. *)
let fault_extra_ms plan ~base ~op =
  let site = "comms.post:" ^ op in
  let extra = ref 0.0 in
  (try
     for attempt = 0 to Fault.max_attempts - 2 do
       match Fault.message_outcome plan ~site with
       | Fault.Pass -> raise Exit
       | Fault.Drop ->
           Fault.record plan (Fault.Dropped { site; attempt });
           extra := !extra +. base +. Fault.backoff_ms attempt
       | Fault.Delay ms ->
           Fault.record plan (Fault.Delayed { site; ms });
           extra := !extra +. ms;
           raise Exit
     done
   with Exit -> ());
  !extra

let post c ?ready engine ~chan ~op ~messages ~bytes =
  if messages < 0 then invalid_arg "Comms.post: negative message count";
  if bytes < 0.0 then invalid_arg "Comms.post: negative byte count";
  if chan < 0 then invalid_arg "Comms.post: negative channel";
  if messages = 0 then Done
  else begin
    let ms = cost_ms c ~messages ~bytes in
    let ms =
      match c.faults with
      | None -> ms
      | Some plan -> ms +. fault_extra_ms plan ~base:ms ~op
    in
    (* Callers address channels by peer/bucket index; fold onto the
       lanes. *)
    let chan = chan mod channels in
    let completion_ms =
      Engine.post engine ~chan ?ready ~ms
        (Kernel.make ~name:op ~category:Kernel.Comm ~grid_blocks:messages
           ~bytes_coalesced:bytes ~graph_proportional:false
           ~provenance:(Kernel.provenance ~origin:"dist.comms" op)
           ())
    in
    Pending { engine; op; completion_ms; faults = c.faults }
  end

let wait = function
  | Done -> ()
  | Pending { engine; op; completion_ms; faults } ->
      let completion_ms =
        match faults with
        | Some plan when Fault.rate plan > 0.0 ->
            let site = "comms.wait:" ^ op in
            if Fault.uniform plan ~site < Fault.rate plan then begin
              let ms = 0.02 +. (0.08 *. Fault.uniform plan ~site) in
              Fault.record plan (Fault.Delayed { site; ms });
              completion_ms +. ms
            end
            else completion_ms
        | _ -> completion_ms
      in
      Engine.wait_until engine ~op completion_ms

let completion_ms = function Done -> 0.0 | Pending p -> p.completion_ms
