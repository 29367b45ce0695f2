module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Tensor = Hector_tensor.Tensor

type t = {
  mg : Mutable_graph.t;
  program : Hector_core.Inter_ir.program;
  base_config : Serve.config;
  sobs : Hector_obs.t;
  live : Serve.t;
  mutable c_rewarms : int;
  mutable c_update_ms : float;
}

(* Host-side cost model for applying a delta, in simulated milliseconds:
   a fixed admission cost, a per-op cost, and a surcharge when the epoch
   turns over (compaction + full rebuild + replica re-warm). *)
let update_cost ~ops ~epoch_changed =
  0.02 +. (0.002 *. float_of_int ops) +. if epoch_changed then 2.0 else 0.0

(* Hand the mutable graph's snapshot to the replica.  [rows]: the feature
   rows the last delta wrote, when the node numbering survived it;
   otherwise the replica copies (and re-projects) every row.  At an epoch
   boundary the capacity graph outgrew the replica's block, so the block
   grows to the new capacity graph in place (same engine, plan and
   weights) with the snapshot installed. *)
let swap_in_snapshot ~epoch_changed ?rows replica mg =
  let snap = Mutable_graph.snapshot mg in
  let graph = snap.Mutable_graph.graph
  and features = snap.Mutable_graph.features
  and csr = snap.Mutable_graph.csr in
  match
    if epoch_changed then
      Serve.rewarm replica ~capacity:(Mutable_graph.capacity_graph mg) ~graph ~features ~csr
    else Serve.update_graph replica ~graph ~features ?rows ~csr ()
  with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Stream_serve: snapshot exceeds warm capacity: " ^ msg)

let create ?(config = Serve.default_config) ?obs ~mg program =
  let sobs =
    match obs with Some o -> o | None -> Hector_obs.create ~enabled:false ()
  in
  let live =
    Serve.create ~config ~obs:sobs ~graph:(Mutable_graph.capacity_graph mg) program
  in
  swap_in_snapshot ~epoch_changed:false live mg;
  {
    mg;
    program;
    base_config = config;
    sobs;
    live;
    c_rewarms = 0;
    c_update_ms = 0.0;
  }

let apply t delta =
  match Mutable_graph.apply t.mg delta with
  | Error _ as e ->
      Hector_obs.add t.sobs "stream.rejected_deltas" 1;
      e
  | Ok stats ->
      t.c_update_ms <-
        t.c_update_ms
        +. update_cost ~ops:(Delta.size delta)
             ~epoch_changed:stats.Mutable_graph.epoch_changed;
      Hector_obs.add t.sobs "stream.deltas" 1;
      Hector_obs.add t.sobs "stream.ops" (Delta.size delta);
      let epoch_changed = stats.Mutable_graph.epoch_changed in
      swap_in_snapshot ~epoch_changed ?rows:stats.Mutable_graph.feature_rows t.live t.mg;
      if epoch_changed then begin
        t.c_rewarms <- t.c_rewarms + 1;
        Hector_obs.add t.sobs "stream.rewarms" 1
      end;
      if stats.Mutable_graph.csr_patched_rows > 0 then
        Hector_obs.add t.sobs "stream.csr_patched_rows"
          stats.Mutable_graph.csr_patched_rows;
      Ok stats

let serve t requests = Serve.serve t.live requests

let check_equivalence ?(tol = 1e-6) t requests =
  (* the scratch replica shares the weights, not the fault plan: its
     batches must not fire (or record) the live plan's faults *)
  let cfg =
    { t.base_config with Serve.weights = Serve.model_weights t.live; faults = None }
  in
  let snap = Mutable_graph.snapshot t.mg in
  let scratch =
    Serve.create ~config:cfg ~graph:snap.Mutable_graph.graph t.program
  in
  (match
     Serve.update_graph scratch ~graph:snap.Mutable_graph.graph
       ~features:snap.Mutable_graph.features ~csr:snap.Mutable_graph.csr ()
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Stream_serve.check_equivalence: " ^ msg));
  let a = Serve.serve t.live requests in
  let b = Serve.serve scratch requests in
  let max_diff = ref 0.0 in
  let err = ref None in
  Array.iteri
    (fun i (ra : Serve.response) ->
      if !err = None then
        let rb = b.(i) in
        match (ra.Serve.output, rb.Serve.output) with
        | None, None -> ()
        | Some _, None | None, Some _ ->
            err :=
              Some
                (Printf.sprintf
                   "request %d: live %s but scratch %s" ra.Serve.request.Workload.id
                   (if ra.Serve.output = None then "dropped" else "served")
                   (if rb.Serve.output = None then "dropped" else "served"))
        | Some oa, Some ob ->
            if Tensor.rows oa <> Tensor.rows ob || Tensor.cols oa <> Tensor.cols ob
            then
              err :=
                Some
                  (Printf.sprintf "request %d: output shape %dx%d vs %dx%d"
                     ra.Serve.request.Workload.id (Tensor.rows oa) (Tensor.cols oa)
                     (Tensor.rows ob) (Tensor.cols ob))
            else
              for r = 0 to Tensor.rows oa - 1 do
                for c = 0 to Tensor.cols oa - 1 do
                  let d = Float.abs (Tensor.get2 oa r c -. Tensor.get2 ob r c) in
                  if d > !max_diff then max_diff := d
                done
              done)
    a;
  match !err with
  | Some msg -> Error msg
  | None ->
      if !max_diff > tol then
        Error
          (Printf.sprintf "outputs diverge: max |live - scratch| = %.3e > %.1e"
             !max_diff tol)
      else Ok !max_diff

let recompiles t = Serve.compiles t.live
let served t = Serve.served t.live
let shed t = Serve.shed t.live
let rejected t = Serve.rejected t.live
let rewarms t = t.c_rewarms
let update_ms t = t.c_update_ms
let replica t = t.live

let metrics_json t =
  let module M = Hector_obs.Metrics in
  let c = Mutable_graph.counters t.mg in
  M.envelope ~subsystem:"stream" ~elapsed_ms:(Serve.device_ms t.live +. t.c_update_ms)
    ~launches:(Serve.launches t.live)
    Hector_json.
      [
        ("comm", M.comm ~posted_ms:0.0 ~exposed_ms:0.0);
        ("deltas", int c.Mutable_graph.deltas);
        ("ops", int c.Mutable_graph.ops);
        ("rejected_deltas", int c.Mutable_graph.rejected_deltas);
        ("epochs", int c.Mutable_graph.epochs);
        ("rewarms", int t.c_rewarms);
        ("recompiles", int (recompiles t));
        ("epoch_node_overflows", int c.Mutable_graph.node_overflows);
        ("epoch_edge_overflows", int c.Mutable_graph.edge_overflows);
        ("csr_rebuilds", int c.Mutable_graph.rebuilds);
        ("csr_rebuilds_churn", int c.Mutable_graph.churn_rebuilds);
        ("csr_rebuilds_epoch", int (c.Mutable_graph.rebuilds - c.Mutable_graph.churn_rebuilds));
        ("csr_patched_rows", int c.Mutable_graph.patched_rows);
        ("compactions", int c.Mutable_graph.compacted);
        ("update_ms", Num t.c_update_ms);
        ("live_nodes", int (Mutable_graph.live_nodes t.mg));
        ("live_edges", int (Mutable_graph.live_edges t.mg));
        ("served", int (served t));
        ("shed", int (shed t));
        ("rejected", int (rejected t));
        ("batch_failures", int (Serve.batch_failures t.live));
        ("fault_shed", int (Serve.fault_shed t.live));
      ]

(* The subsystem's restorable state: the pinned weight set (invariant
   across re-warms) plus the mutable graph's epoch/version cursor, so a
   restarted server knows which capacity epoch and delta generation its
   weights correspond to. *)
let checkpoint t =
  Hector_ckpt.Checkpoint.create ~model:t.base_config.Serve.model
    ~epoch:(Mutable_graph.epoch t.mg)
    ~graph_version:(Mutable_graph.version t.mg)
    (Serve.model_weights t.live)
