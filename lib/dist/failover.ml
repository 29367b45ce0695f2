module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Engine = Hector_gpu.Engine
module Fault = Hector_ckpt.Fault
module Checkpoint = Hector_ckpt.Checkpoint

type result = {
  cluster : Replica.t;
  losses : float array;
  events : Fault.event list;
  recovery_ms : float;
  checkpoints : string list;
}

let default_detect_timeout_ms = 5.0

let snapshot ~step cluster =
  Checkpoint.create ~model:"dist" ~step (Replica.weights_of cluster 0)

(* Fault-tolerant data-parallel training.

   The driver owns the checkpoint cadence and the crash protocol.  A crash
   scheduled at step [s] kills its replica as the cluster enters that step:
   the survivors detect the dead peer by wait-timeout (charged to their
   clocks as host sync), reload the latest checkpoint, re-partition the
   graph over the surviving replica count and continue.  Training is exact
   at any partition count, so the recovered trajectory replays the lost
   steps onto the same losses (≤ 1e-6) the uninterrupted run produces —
   the property the recovery tests pin. *)
let train ?(config = Replica.Config.default) ?faults ?dir ?keep ?(every = 0) ?(lr = 0.01)
    ?(detect_timeout_ms = default_detect_timeout_ms) ~features ~graph ~labels ~steps
    compiled =
  if steps < 0 then invalid_arg "Failover.train: negative step count";
  let cluster = ref (Replica.create ~config ~features ~graph [ compiled ]) in
  let losses = Array.make (max steps 1) 0.0 in
  let saved = ref [] in
  let recovery_ms = ref 0.0 in
  let crash = match faults with Some f -> Fault.crash_at f | None -> None in
  let save ~step =
    saved := Checkpoint.save ?dir ?keep (snapshot ~step !cluster) :: !saved
  in
  (* an initial restore point, so recovery works even before the first
     cadence checkpoint *)
  if every > 0 || crash <> None then save ~step:0;
  let step = ref 1 in
  let crashed = ref false in
  while !step <= steps do
    let crash_now =
      match crash with
      | Some (cs, cr) -> (not !crashed) && !step = max 1 cs && cr < Replica.parts !cluster
      | None -> false
    in
    if crash_now then begin
      crashed := true;
      let plan = Option.get faults in
      let cs, cr = Option.get crash in
      Fault.record plan (Fault.Crashed { replica = cr; step = cs });
      Fault.record plan
        (Fault.Detected { replica = cr; step = cs; timeout_ms = detect_timeout_ms });
      let path =
        match Checkpoint.latest ?dir () with
        | Some p -> p
        | None -> invalid_arg "Failover.train: crash with no checkpoint to restore from"
      in
      let ckpt = Checkpoint.load path in
      let from_step = Checkpoint.step ckpt in
      let survivors = max 1 (Replica.parts !cluster - 1) in
      (* rebuild over the survivors, starting from the checkpoint weights *)
      let cfg =
        {
          config with
          Replica.Config.parts = Some survivors;
          weights = Some [ Checkpoint.tensors ckpt ];
        }
      in
      let rebuilt = Replica.create ~config:cfg ~features ~graph [ compiled ] in
      (* charge detection (the wait-timeout every survivor burned) and the
         checkpoint reload onto the recovered cluster's clocks *)
      let reload_ms =
        Comms.cost_ms (Replica.comms rebuilt) ~messages:1
          ~bytes:(float_of_int (String.length (Checkpoint.encode ckpt)))
      in
      let charge = detect_timeout_ms +. reload_ms in
      Array.iter (fun e -> Engine.host_sync e ~us:(charge *. 1e3) ()) (Replica.engines rebuilt);
      recovery_ms := !recovery_ms +. charge;
      cluster := rebuilt;
      Fault.record plan (Fault.Restored { step = cs; parts = survivors; from_step });
      (* replay the steps lost since the checkpoint; determinism + exactness
         make them land on the same losses *)
      step := from_step + 1
    end
    else begin
      losses.(!step - 1) <- Replica.train_step !cluster ~lr ~labels ();
      if every > 0 && (!step mod every = 0 || !step = steps) then save ~step:!step;
      incr step
    end
  done;
  {
    cluster = !cluster;
    losses = (if steps = 0 then [||] else losses);
    events = (match faults with Some f -> Fault.events f | None -> []);
    recovery_ms = !recovery_ms;
    checkpoints = List.rev !saved;
  }
