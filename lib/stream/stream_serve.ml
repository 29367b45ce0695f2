module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Plan_cache = Hector_serve.Plan_cache
module Engine = Hector_gpu.Engine
module Tensor = Hector_tensor.Tensor

type t = {
  mg : Mutable_graph.t;
  program : Hector_core.Inter_ir.program;
  base_config : Serve.config;
  sobs : Hector_obs.t;
  mutable live : Serve.t;
  backlog : Delta.t Queue.t;
  (* accounting carried across replica re-warms *)
  mutable retired_misses : int;
  mutable retired_served : int;
  mutable retired_shed : int;
  mutable retired_rejected : int;
  mutable retired_batch_failures : int;
  mutable retired_fault_shed : int;
  mutable retired_launches : int;
  mutable retired_ms : float;
  mutable c_rewarms : int;
  mutable c_update_ms : float;
}

(* Host-side cost model for applying a delta, in simulated milliseconds:
   a fixed admission cost, a per-op cost, and a surcharge when the epoch
   turns over (compaction + full rebuild + replica re-warm). *)
let update_cost ~ops ~epoch_changed =
  0.02 +. (0.002 *. float_of_int ops) +. if epoch_changed then 2.0 else 0.0

let swap_in_snapshot replica mg =
  let snap = Mutable_graph.snapshot mg in
  match
    Serve.update_graph replica ~graph:snap.Mutable_graph.graph
      ~features:snap.Mutable_graph.features ~csr:snap.Mutable_graph.csr ()
  with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Stream_serve: snapshot exceeds warm capacity: " ^ msg)

(* A re-warm's weights are pinned, so it skips the seeded feature draw:
   its zero features are overwritten by the snapshot swapped in next, and
   capacity rows past the snapshot are never sampled. *)
let warm_replica ?(rewarm = false) ~config ~obs ~mg program =
  let config = { config with Serve.epoch = Mutable_graph.epoch mg } in
  let graph = Mutable_graph.capacity_graph mg in
  let features =
    if rewarm then
      Some (Tensor.zeros [| graph.Hector_graph.Hetgraph.num_nodes; Mutable_graph.feat_dim mg |])
    else None
  in
  let replica = Serve.create ~config ~obs ?features ~graph program in
  swap_in_snapshot replica mg;
  replica

let create ?(config = Serve.default_config) ?obs ~mg program =
  let sobs =
    match obs with Some o -> o | None -> Hector_obs.create ~enabled:false ()
  in
  let live = warm_replica ~config ~obs:sobs ~mg program in
  {
    mg;
    program;
    base_config = config;
    sobs;
    live;
    backlog = Queue.create ();
    retired_misses = 0;
    retired_served = 0;
    retired_shed = 0;
    retired_rejected = 0;
    retired_batch_failures = 0;
    retired_fault_shed = 0;
    retired_launches = 0;
    retired_ms = 0.0;
    c_rewarms = 0;
    c_update_ms = 0.0;
  }

let retire t =
  t.retired_misses <- t.retired_misses + Plan_cache.misses (Serve.plan_cache t.live);
  t.retired_served <- t.retired_served + Serve.served t.live;
  t.retired_shed <- t.retired_shed + Serve.shed t.live;
  t.retired_rejected <- t.retired_rejected + Serve.rejected t.live;
  t.retired_batch_failures <- t.retired_batch_failures + Serve.batch_failures t.live;
  t.retired_fault_shed <- t.retired_fault_shed + Serve.fault_shed t.live;
  t.retired_launches <- t.retired_launches + Serve.launches t.live;
  t.retired_ms <- t.retired_ms +. Engine.elapsed_ms (Serve.engine t.live)

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
      if stats.Mutable_graph.epoch_changed then begin
        (* epoch boundary: the capacity graph changed name and size, so
           the plan and backings are stale wholesale — retire the replica
           and warm its successor with the SAME weights *)
        retire t;
        let cfg =
          { t.base_config with Serve.weights = Serve.model_weights t.live }
        in
        t.live <- warm_replica ~rewarm:true ~config:cfg ~obs:t.sobs ~mg:t.mg t.program;
        t.c_rewarms <- t.c_rewarms + 1;
        Hector_obs.add t.sobs "stream.rewarms" 1
      end
      else swap_in_snapshot t.live t.mg;
      if stats.Mutable_graph.csr_patched_rows > 0 then
        Hector_obs.add t.sobs "stream.csr_patched_rows"
          stats.Mutable_graph.csr_patched_rows;
      Ok stats

let push t delta = Queue.add delta t.backlog
let pending t = Queue.length t.backlog

let drain t =
  while not (Queue.is_empty t.backlog) do
    ignore (apply t (Queue.pop t.backlog))
  done

let serve t requests =
  drain t;
  Serve.serve t.live requests

let replay t ~requests ~deltas =
  let n = Array.length requests in
  Array.iter
    (fun (k, _) ->
      if k < 0 || k > n then
        invalid_arg
          (Printf.sprintf "Stream_serve.replay: delta index %d out of range [0, %d]" k n))
    deltas;
  for i = 1 to Array.length deltas - 1 do
    if fst deltas.(i) < fst deltas.(i - 1) then
      invalid_arg "Stream_serve.replay: delta indices must be non-decreasing"
  done;
  let responses = ref [] in
  let served_upto = ref 0 in
  let serve_upto k =
    if k > !served_upto then begin
      let seg = Array.sub requests !served_upto (k - !served_upto) in
      responses := serve t seg :: !responses;
      served_upto := k
    end
  in
  Array.iter
    (fun (k, d) ->
      serve_upto k;
      push t d)
    deltas;
  serve_upto n;
  drain t;
  Array.concat (List.rev !responses)

let check_equivalence ?(tol = 1e-6) t requests =
  let cfg =
    { t.base_config with Serve.weights = Serve.model_weights t.live }
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

let recompiles t = t.retired_misses + Plan_cache.misses (Serve.plan_cache t.live)
let served t = t.retired_served + Serve.served t.live
let shed t = t.retired_shed + Serve.shed t.live
let rejected t = t.retired_rejected + Serve.rejected t.live
let batch_failures t = t.retired_batch_failures + Serve.batch_failures t.live
let fault_shed t = t.retired_fault_shed + Serve.fault_shed t.live
let rewarms t = t.c_rewarms
let update_ms t = t.c_update_ms
let mutable_graph t = t.mg
let replica t = t.live
let obs t = t.sobs

let metrics_json t =
  let module M = Hector_obs.Metrics in
  let c = Mutable_graph.counters t.mg in
  let launches = t.retired_launches + Serve.launches t.live in
  let elapsed =
    t.retired_ms +. Engine.elapsed_ms (Serve.engine t.live) +. t.c_update_ms
  in
  M.envelope ~subsystem:"stream" ~elapsed_ms:elapsed ~launches
    Hector_json.
      [
        ("comm", M.comm ~posted_ms:0.0 ~exposed_ms:0.0);
        ("deltas", int c.Mutable_graph.deltas);
        ("ops", int c.Mutable_graph.ops);
        ("rejected_deltas", int c.Mutable_graph.rejected_deltas);
        ("epochs", int c.Mutable_graph.epochs);
        ("rewarms", int t.c_rewarms);
        ("recompiles", int (recompiles t));
        ("csr_rebuilds", int c.Mutable_graph.rebuilds);
        ("csr_patched_rows", int c.Mutable_graph.patched_rows);
        ("compactions", int c.Mutable_graph.compacted);
        ("update_ms", Num t.c_update_ms);
        ("live_nodes", int (Mutable_graph.live_nodes t.mg));
        ("live_edges", int (Mutable_graph.live_edges t.mg));
        ("served", int (served t));
        ("shed", int (shed t));
        ("rejected", int (rejected t));
        ("batch_failures", int (batch_failures t));
        ("fault_shed", int (fault_shed t));
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
