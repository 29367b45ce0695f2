(* Tests for the distributed execution subsystem: the typed-edge
   partitioner (qcheck properties), the interconnect cost model, and the
   exactness anchor — partitioned forward/backward must match a
   single-replica session to <= 1e-6 at 1, 2 and 4 partitions. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Partition = Hector_graph.Partition
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Stats = Hector_gpu.Stats
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Knobs = Hector_runtime.Knobs
module Comms = Hector_dist.Comms
module Replica = Hector_dist.Replica

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let parent =
  lazy
    (Gen.generate
       {
         Gen.name = "dist_parent";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 180;
         num_edges = 720;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 51;
       })

let features_of graph dim =
  let rng = Rng.create 23 in
  T.randn rng [| graph.G.num_nodes; dim |]

let labels_of graph classes =
  Array.init graph.G.num_nodes (fun v -> (graph.G.node_type.(v) + v) mod classes)

let compile_model ?(training = false) ?(compact = false) ?(fusion = false) model =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training ~compact ~fusion ())
    (Hector_models.Model_defs.by_name model ~in_dim:6 ~out_dim:4 ())

let quiet_comms = Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ()

let quiet parts =
  { Replica.Config.default with Replica.Config.parts = Some parts; comms = Some quiet_comms }

(* --- partitioner ------------------------------------------------------- *)

let test_partition_covers_graph () =
  let graph = Lazy.force parent in
  let pt = Partition.partition ~parts:3 graph in
  (* every node owned exactly once *)
  let owned_seen = Array.make graph.G.num_nodes 0 in
  Array.iter
    (fun (m : Partition.part) ->
      check_bool "partition non-empty" true (Array.length m.Partition.owned_nodes > 0);
      Array.iter
        (fun i -> owned_seen.(m.Partition.origin_node.(i)) <- owned_seen.(m.Partition.origin_node.(i)) + 1)
        m.Partition.owned_nodes)
    pt.Partition.members;
  Array.iteri (fun v c -> check_int (Printf.sprintf "node %d owned once" v) 1 c) owned_seen;
  (* every edge in exactly one partition, with endpoints preserved *)
  let edge_seen = Array.make graph.G.num_edges 0 in
  Array.iter
    (fun (m : Partition.part) ->
      Array.iteri
        (fun i eid ->
          edge_seen.(eid) <- edge_seen.(eid) + 1;
          check_int "src preserved" graph.G.src.(eid)
            m.Partition.origin_node.(m.Partition.sub.G.src.(i));
          check_int "dst preserved" graph.G.dst.(eid)
            m.Partition.origin_node.(m.Partition.sub.G.dst.(i));
          (* assignment rule: the partition owns the destination *)
          check_bool "dst owned" true m.Partition.owned.(m.Partition.sub.G.dst.(i)))
        m.Partition.origin_edge)
    pt.Partition.members;
  Array.iteri (fun e c -> check_int (Printf.sprintf "edge %d placed once" e) 1 c) edge_seen

let test_partition_halo_maps () =
  let graph = Lazy.force parent in
  let pt = Partition.partition ~parts:4 graph in
  Array.iteri
    (fun p (m : Partition.part) ->
      (* every non-owned local node appears in exactly one halo pair, under
         the peer that owns it, mapped to the peer's matching local row *)
      let halo_of = Array.make m.Partition.sub.G.num_nodes None in
      Array.iter
        (fun (peer, pairs) ->
          check_bool "peer is not self" true (peer <> p);
          Array.iter
            (fun (local, peer_local) ->
              check_bool "halo row not owned" false m.Partition.owned.(local);
              check_bool "no duplicate halo entry" true (halo_of.(local) = None);
              halo_of.(local) <- Some (peer, peer_local);
              let parent_id = m.Partition.origin_node.(local) in
              check_int "peer owns the node" peer pt.Partition.owner.(parent_id);
              let peer_part = pt.Partition.members.(peer) in
              check_int "peer-local row is the same parent node" parent_id
                peer_part.Partition.origin_node.(peer_local))
            pairs)
        m.Partition.halo;
      Array.iteri
        (fun local owned ->
          if not owned then
            check_bool "halo map complete" true (halo_of.(local) <> None))
        m.Partition.owned)
    pt.Partition.members

let prop_partition_every_edge_once =
  QCheck.Test.make ~name:"every edge lands in exactly one partition" ~count:30
    QCheck.(make Gen.(int_range 1 8))
    (fun parts ->
      let graph = Lazy.force parent in
      let pt = Partition.partition ~parts graph in
      let seen = Array.make graph.G.num_edges 0 in
      Array.iter
        (fun (m : Partition.part) ->
          Array.iter (fun eid -> seen.(eid) <- seen.(eid) + 1) m.Partition.origin_edge)
        pt.Partition.members;
      Array.for_all (fun c -> c = 1) seen)

let prop_partition_halo_complete =
  QCheck.Test.make ~name:"halo maps cover every non-owned local node" ~count:30
    QCheck.(make Gen.(int_range 1 8))
    (fun parts ->
      let graph = Lazy.force parent in
      let pt = Partition.partition ~parts graph in
      Array.for_all
        (fun (m : Partition.part) ->
          let covered = Array.make m.Partition.sub.G.num_nodes false in
          Array.iter
            (fun (_, pairs) -> Array.iter (fun (local, _) -> covered.(local) <- true) pairs)
            m.Partition.halo;
          Array.for_all Fun.id
            (Array.mapi (fun local owned -> owned || covered.(local)) m.Partition.owned))
        pt.Partition.members)

let prop_partition_balance =
  QCheck.Test.make ~name:"owned-node counts stay within the configured slack" ~count:30
    QCheck.(make Gen.(pair (int_range 1 8) (int_range 0 4)))
    (fun (parts, slack_tenths) ->
      let graph = Lazy.force parent in
      let slack = float_of_int slack_tenths /. 10.0 in
      let pt = Partition.partition ~slack ~parts graph in
      let n = graph.G.num_nodes in
      let even = (n + parts - 1) / parts in
      let cap =
        max even (int_of_float (floor ((1.0 +. slack) *. float_of_int n /. float_of_int parts)))
      in
      Partition.max_owned pt <= cap)

let prop_partition_deterministic =
  QCheck.Test.make ~name:"partitioning is deterministic" ~count:20
    QCheck.(make Gen.(pair (int_range 1 8) (int_range 0 3)))
    (fun (parts, slack_tenths) ->
      let graph = Lazy.force parent in
      let slack = float_of_int slack_tenths /. 10.0 in
      let a = Partition.partition ~slack ~parts graph in
      let b = Partition.partition ~slack ~parts graph in
      a.Partition.owner = b.Partition.owner
      && a.Partition.cut_edges = b.Partition.cut_edges)

let test_partition_validation () =
  let graph = Lazy.force parent in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "parts 0" true (raises (fun () -> Partition.partition ~parts:0 graph));
  check_bool "too many parts" true
    (raises (fun () -> Partition.partition ~parts:(graph.G.num_nodes + 1) graph));
  check_bool "negative slack" true
    (raises (fun () -> Partition.partition ~slack:(-0.1) ~parts:2 graph))

(* --- interconnect cost model ------------------------------------------ *)

let test_comms_cost_model () =
  let c = Comms.create ~latency_us:10.0 ~bandwidth_gbs:10.0 ~channels:2 () in
  (* 10 us latency + 1 MB over 10 GB/s = 0.01 + 0.1 ms *)
  let ms = Comms.transfer_ms c ~bytes:1e6 in
  check_bool (Printf.sprintf "latency+bandwidth (%.4f)" ms) true (abs_float (ms -. 0.11) < 1e-9);
  let engine = Engine.create () in
  (* a blocking transfer: post on channel 0 and wait at once *)
  Comms.wait (Comms.post c engine ~chan:0 ~op:"halo_exchange" ~messages:2 ~bytes:1e6);
  let st = Engine.stats engine in
  check_int "one comm launch" 1 (Stats.of_op st "halo_exchange").Stats.launches;
  check_bool "comm category charged" true
    ((Stats.of_category st Kernel.Comm).Stats.time_ms > 0.0);
  check_bool "clock advanced by the charge" true
    (abs_float (Engine.elapsed_ms engine -. 0.12) < 1e-9);
  check_bool "attribution covers the clock" true
    (abs_float (Stats.attributed_ms st -. Engine.elapsed_ms engine) < 1e-9)

(* transfers on distinct channels run concurrently: two 0.101 ms posts at
   clock 0 expose only 0.101 ms, and a third post folded back onto channel
   0 queues behind the first *)
let test_post_channels_overlap () =
  let c = Comms.create ~latency_us:10.0 ~bandwidth_gbs:10.0 ~channels:2 () in
  let engine = Engine.create () in
  let h0 = Comms.post c engine ~chan:0 ~op:"a" ~messages:1 ~bytes:1e6 in
  let h1 = Comms.post c engine ~chan:1 ~op:"b" ~messages:1 ~bytes:1e6 in
  let h2 = Comms.post c engine ~chan:2 ~op:"c" ~messages:1 ~bytes:1e6 in
  check_bool "parallel channels complete together" true
    (abs_float (Comms.completion_ms h0 -. Comms.completion_ms h1) < 1e-12);
  check_bool "chan 2 folds onto channel 0 and queues" true
    (abs_float (Comms.completion_ms h2 -. (2.0 *. Comms.completion_ms h0)) < 1e-12);
  Comms.wait h0;
  Comms.wait h1;
  check_bool "two overlapped transfers expose one duration" true
    (abs_float (Engine.elapsed_ms engine -. 0.11) < 1e-9);
  Comms.wait h2;
  check_bool "queued transfer exposes its remainder" true
    (abs_float (Engine.elapsed_ms engine -. 0.22) < 1e-9);
  check_bool "posted time counts every transfer" true
    (abs_float (Engine.posted_comm_ms engine -. 0.33) < 1e-9);
  check_bool "attribution still covers the clock" true
    (abs_float (Stats.attributed_ms (Engine.stats engine) -. Engine.elapsed_ms engine) < 1e-9)

(* chrome-trace witness: a posted Comm span and a compute span occupy
   overlapping simulated intervals, on different tracks *)
let test_trace_concurrent_comm_span () =
  let c = Comms.create ~latency_us:100.0 ~bandwidth_gbs:1.0 () in
  let engine = Engine.create ~trace:true () in
  let h = Comms.post c engine ~chan:0 ~op:"halo_exchange" ~messages:1 ~bytes:1e7 in
  Engine.launch engine
    (Kernel.make ~name:"gemm" ~category:Kernel.Gemm ~grid_blocks:4096 ~threads_per_block:256
       ~flops:1e9 ~bytes_coalesced:1e6 ());
  Comms.wait h;
  let events = Engine.events engine in
  let comm = List.find (fun (e : Engine.event) -> e.Engine.chan <> None) events in
  let compute = List.find (fun (e : Engine.event) -> e.Engine.chan = None) events in
  check_bool "comm and compute spans overlap in simulated time" true
    (comm.Engine.start_ms < compute.Engine.start_ms +. compute.Engine.duration_ms
    && compute.Engine.start_ms < comm.Engine.start_ms +. comm.Engine.duration_ms);
  let trace = Engine.to_chrome_trace engine in
  check_bool "transfer renders on its own channel track" true (contains trace "\"tid\":2");
  check_bool "compute renders on the compute track" true (contains trace "\"tid\":1")

let test_dist_knobs () =
  let env = function
    | "HECTOR_DIST_PARTS" -> Some "4"
    | "HECTOR_DIST_LATENCY_US" -> Some "2.5"
    | "HECTOR_DIST_BW_GBS" -> Some "100"
    | "HECTOR_DIST_CHANNELS" -> Some "4"
    | "HECTOR_DIST_BUCKET_KB" -> Some "128"
    | "HECTOR_DIST_PIPELINE" -> Some "2"
    | _ -> None
  in
  let k = Knobs.parse env in
  check_bool "parts knob" true (k.Knobs.dist_parts = Some 4);
  check_bool "latency knob" true (k.Knobs.dist_latency_us = Some 2.5);
  check_bool "bandwidth knob" true (k.Knobs.dist_bandwidth_gbs = Some 100.0);
  check_bool "channels knob" true (k.Knobs.dist_channels = Some 4);
  check_bool "bucket knob" true (k.Knobs.dist_bucket_kb = Some 128);
  check_bool "pipeline knob" true (k.Knobs.dist_pipeline = Some 2);
  (* malformed values raise instead of silently falling back *)
  let rejects name v =
    match Knobs.parse (fun n -> if String.equal n name then Some v else None) with
    | _ -> Alcotest.failf "%s=%s accepted" name v
    | exception Invalid_argument msg ->
        check_bool (name ^ " error names the knob") true
          (String.length msg > 6 && String.sub msg 0 6 = "Knobs:")
  in
  rejects "HECTOR_DIST_PARTS" "zero";
  rejects "HECTOR_DIST_LATENCY_US" "-3";
  rejects "HECTOR_DIST_CHANNELS" "0";
  rejects "HECTOR_DIST_BUCKET_KB" "-1";
  rejects "HECTOR_DIST_PIPELINE" "none"

(* --- exactness: partitioned == single-replica -------------------------- *)

let reference_forward graph features master compiled =
  let cfg =
    {
      Session.Config.default with
      Session.Config.seed = 3;
      node_inputs = [ ("h", features) ];
      weights = master;
    }
  in
  let session = Session.create ~config:cfg ~graph compiled in
  match Session.forward session with
  | (_, out) :: _ -> out
  | [] -> Alcotest.fail "reference produced no output"

let test_forward_exact model ~compact ~fusion () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let compiled = compile_model ~compact ~fusion model in
  List.iter
    (fun parts ->
      let cluster =
        Replica.create ~config:(quiet parts) ~features ~graph [ compiled ]
      in
      let out = Replica.forward cluster in
      let master = List.hd (Replica.master_weights cluster) in
      let reference = reference_forward graph features master compiled in
      let d = T.max_abs_diff out reference in
      check_bool
        (Printf.sprintf "%s forward exact at %d partitions (diff %.2e)" model parts d)
        true (d <= 1e-6))
    [ 1; 2; 4 ]

let test_multilayer_forward_exact () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let layer1 = compile_model "rgcn" in
  let layer2 =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:false ~compact:false ~fusion:false ())
      (Hector_models.Model_defs.rgcn ~in_dim:4 ~out_dim:3 ())
  in
  List.iter
    (fun parts ->
      let cluster =
        Replica.create ~config:(quiet parts) ~features ~graph [ layer1; layer2 ]
      in
      let out = Replica.forward cluster in
      let masters = Replica.master_weights cluster in
      let mid = reference_forward graph features (List.nth masters 0) layer1 in
      let reference = reference_forward graph mid (List.nth masters 1) layer2 in
      let d = T.max_abs_diff out reference in
      check_bool
        (Printf.sprintf "two-layer forward exact at %d partitions (diff %.2e)" parts d)
        true (d <= 1e-6))
    [ 1; 2; 4 ]

let max_weight_diff a b =
  List.fold_left
    (fun acc (name, w) ->
      match List.assoc_opt name b with
      | Some w' -> Float.max acc (T.max_abs_diff w w')
      | None -> Alcotest.fail (Printf.sprintf "weight %s missing" name))
    0.0 a

let test_train_exact model ~compact ~fusion () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let compiled = compile_model ~training:true ~compact ~fusion model in
  List.iter
    (fun parts ->
      let cluster =
        Replica.create ~config:(quiet parts) ~features ~graph [ compiled ]
      in
      let master = List.hd (Replica.master_weights cluster) in
      let cfg =
        {
          Session.Config.default with
          Session.Config.seed = 3;
          node_inputs = [ ("h", features) ];
          weights = List.map (fun (n, w) -> (n, T.copy w)) master;
        }
      in
      let reference = Session.create ~config:cfg ~graph compiled in
      for step = 1 to 3 do
        let loss_d = Replica.train_step cluster ~lr:0.05 ~labels () in
        let loss_r = Session.train_step reference ~lr:0.05 ~labels () in
        check_bool
          (Printf.sprintf "%s loss exact at %d parts, step %d (%.2e vs %.2e)" model parts
             step loss_d loss_r)
          true
          (abs_float (loss_d -. loss_r) <= 1e-6)
      done;
      let d = max_weight_diff (Session.weights reference) (Replica.weights_of cluster 0) in
      check_bool
        (Printf.sprintf "%s weights exact at %d parts (diff %.2e)" model parts d)
        true (d <= 1e-6);
      (* replicas stay bitwise identical: they apply the same summed grads *)
      for p = 1 to parts - 1 do
        check_bool "replicas identical" true
          (max_weight_diff (Replica.weights_of cluster 0) (Replica.weights_of cluster p)
          = 0.0)
      done)
    [ 1; 2; 4 ]

(* --- steady state and attribution -------------------------------------- *)

let test_steady_state_no_alloc () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let compiled = compile_model ~training:true "rgcn" in
  let cluster = Replica.create ~config:(quiet 2) ~features ~graph [ compiled ] in
  ignore (Replica.train_step cluster ~labels ());
  let warm = Replica.alloc_counts cluster in
  for _ = 1 to 3 do
    ignore (Replica.train_step cluster ~labels ())
  done;
  Alcotest.(check (array int))
    "steady-state epochs allocate no plan buffers" warm (Replica.alloc_counts cluster)

let test_comm_attributed () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let compiled = compile_model ~training:true "rgcn" in
  let cluster = Replica.create ~config:(quiet 4) ~features ~graph [ compiled ] in
  ignore (Replica.train_step cluster ~labels ());
  let halo = ref 0 and allreduce = ref 0 in
  Array.iter
    (fun engine ->
      let st = Engine.stats engine in
      halo := !halo + (Stats.of_op st "halo_exchange").Stats.launches;
      allreduce := !allreduce + (Stats.of_op st "allreduce").Stats.launches;
      (* the whole-clock attribution invariant holds with comm pseudo-ops *)
      check_bool "attributed_ms covers the clock" true
        (abs_float (Stats.attributed_ms st -. Engine.elapsed_ms engine)
        <= 1e-9 *. Float.max 1.0 (Engine.elapsed_ms engine)))
    (Replica.engines cluster);
  check_bool "halo exchanges charged" true (!halo > 0);
  check_int "one allreduce per replica" 4 !allreduce;
  check_bool "cluster comm time positive" true (Replica.comm_ms cluster > 0.0);
  check_bool "comm below total busy time" true (Replica.comm_ms cluster < Replica.busy_ms cluster);
  let json = Replica.metrics_json cluster in
  check_bool "metrics json mentions comm" true (contains json "comm_ms")

let test_single_partition_has_no_comm () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let compiled = compile_model "rgcn" in
  let cluster = Replica.create ~config:(quiet 1) ~features ~graph [ compiled ] in
  ignore (Replica.forward cluster);
  check_bool "no comm at one partition" true (Replica.comm_ms cluster = 0.0)

(* --- the Config record ---------------------------------------------------- *)

let test_replica_config () =
  let d = Replica.Config.default in
  check_bool "default parts knob-driven" true (d.Replica.Config.parts = None);
  check_bool "default overlap on" true d.Replica.Config.overlap;
  check_bool "default pipeline knob-driven" true (d.Replica.Config.pipeline = None);
  check_bool "default bucket knob-driven" true (d.Replica.Config.bucket_kb = None);
  check_int "default seed" 1 d.Replica.Config.seed;
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let compiled = compile_model "rgcn" in
  let cfg =
    {
      Replica.Config.default with
      Replica.Config.parts = Some 3;
      comms = Some quiet_comms;
      overlap = false;
      pipeline = Some 2;
    }
  in
  let cluster = Replica.create ~config:cfg ~features ~graph [ compiled ] in
  check_int "config parts honored" 3 (Replica.parts cluster);
  check_bool "config overlap honored" false (Replica.overlap cluster);
  (* pipeline only takes effect with overlap on; depth is still resolved *)
  check_int "config pipeline resolved" 2 (Replica.pipeline_depth cluster);
  check_bool "default config overlaps" true
    (Replica.overlap (Replica.create ~config:(quiet 2) ~features ~graph [ compiled ]))

(* --- overlapped / pipelined == BSP -------------------------------------- *)

let make_cluster ~model ~parts ~overlap ~pipeline ~bucket_kb ~features ~graph =
  let compiled = compile_model ~training:true model in
  let cfg =
    {
      Replica.Config.default with
      Replica.Config.parts = Some parts;
      comms = Some quiet_comms;
      overlap;
      pipeline = Some pipeline;
      bucket_kb = Some bucket_kb;
    }
  in
  Replica.create ~config:cfg ~features ~graph [ compiled ]

let prop_overlap_equals_bsp =
  QCheck.Test.make ~name:"overlapped/pipelined training == BSP to 1e-6" ~count:8
    QCheck.(
      make
        Gen.(
          quad (int_range 0 1) (* model *)
            (int_range 0 2) (* parts index *)
            (int_range 1 3) (* pipeline depth *)
            (int_range 0 2) (* bucket index *)))
    (fun (model_i, parts_i, pipeline, bucket_i) ->
      let model = [| "rgcn"; "rgat" |].(model_i) in
      let parts = [| 1; 2; 4 |].(parts_i) in
      let bucket_kb = [| 1; 4; 64 |].(bucket_i) in
      let graph = Lazy.force parent in
      let features = features_of graph 6 in
      let labels = labels_of graph 4 in
      let ov =
        make_cluster ~model ~parts ~overlap:true ~pipeline ~bucket_kb ~features ~graph
      in
      let bsp =
        make_cluster ~model ~parts ~overlap:false ~pipeline:1 ~bucket_kb:64 ~features ~graph
      in
      let losses_close = ref true in
      for _ = 1 to 2 do
        let lo = Replica.train_step ov ~lr:0.05 ~labels () in
        let lb = Replica.train_step bsp ~lr:0.05 ~labels () in
        if abs_float (lo -. lb) > 1e-6 then losses_close := false
      done;
      !losses_close
      && max_weight_diff (Replica.weights_of ov 0) (Replica.weights_of bsp 0) <= 1e-6)

(* --- overlap actually hides transfer time ------------------------------- *)

let comm_ratio ~overlap ~pipeline =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let cluster =
    make_cluster ~model:"rgcn" ~parts:4 ~overlap ~pipeline ~bucket_kb:64 ~features ~graph
  in
  ignore (Replica.train_step cluster ~labels ());
  Replica.reset_clocks cluster;
  for _ = 1 to 3 do
    ignore (Replica.train_step cluster ~labels ())
  done;
  (Replica.comm_ms cluster /. Replica.busy_ms cluster, cluster)

let test_overlap_reduces_comm_ratio () =
  let bsp_ratio, _ = comm_ratio ~overlap:false ~pipeline:1 in
  let ov_ratio, ov = comm_ratio ~overlap:true ~pipeline:1 in
  check_bool
    (Printf.sprintf "overlap lowers the comm ratio (%.4f < %.4f)" ov_ratio bsp_ratio)
    true (ov_ratio < bsp_ratio);
  (* the hidden time is visible as posted - exposed *)
  check_bool "overlapped cluster hides transfer time" true
    (Replica.posted_comm_ms ov > Replica.comm_ms ov)

(* --- shared metrics envelope across subsystems -------------------------- *)

let test_metrics_schema_uniform () =
  let envelope_keys = [ "\"subsystem\""; "\"elapsed_ms\""; "\"launches\""; "\"comm\""; "\"overlap_ratio\"" ] in
  let assert_envelope name json =
    List.iter
      (fun key ->
        check_bool (Printf.sprintf "%s metrics has %s" name key) true (contains json key))
      envelope_keys
  in
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  (* dist *)
  let cluster =
    make_cluster ~model:"rgcn" ~parts:2 ~overlap:true ~pipeline:1 ~bucket_kb:64 ~features
      ~graph
  in
  ignore (Replica.train_step cluster ~labels ());
  assert_envelope "dist" (Replica.metrics_json cluster);
  check_bool "dist subsystem tag" true
    (contains (Replica.metrics_json cluster) "\"subsystem\":\"dist\"");
  (* session *)
  let compiled = compile_model "rgcn" in
  let cfg =
    { Session.Config.default with Session.Config.node_inputs = [ ("h", features) ] }
  in
  let session = Session.create ~config:cfg ~graph compiled in
  ignore (Session.forward session);
  assert_envelope "session" (Session.metrics_json session);
  check_bool "session subsystem tag" true
    (contains (Session.metrics_json session) "\"subsystem\":\"session\"");
  (* serve *)
  let module Serve = Hector_serve.Serve in
  let module Workload = Hector_serve.Workload in
  let sconfig =
    {
      Serve.default_config with
      Serve.fanout = Serve.exact_fanout graph;
      hops = 2;
      max_batch = Some 4;
      max_wait_ms = 5.0;
      queue_capacity = Some 64;
    }
  in
  let server =
    Serve.create ~config:sconfig ~graph (Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:4 ())
  in
  let requests =
    Workload.generate
      ~spec:{ Workload.default_spec with Workload.requests = 8; seeds_per_request = 2 }
      ~num_nodes:graph.G.num_nodes ()
  in
  ignore (Serve.serve server requests);
  assert_envelope "serve" (Serve.metrics_json server);
  check_bool "serve subsystem tag" true
    (contains (Serve.metrics_json server) "\"subsystem\":\"serve\"")

let suite =
  [
    Alcotest.test_case "partition covers the graph" `Quick test_partition_covers_graph;
    Alcotest.test_case "partition halo maps" `Quick test_partition_halo_maps;
    Alcotest.test_case "partition validation" `Quick test_partition_validation;
    Alcotest.test_case "comms cost model" `Quick test_comms_cost_model;
    Alcotest.test_case "channels overlap transfers" `Quick test_post_channels_overlap;
    Alcotest.test_case "trace shows concurrent comm span" `Quick test_trace_concurrent_comm_span;
    Alcotest.test_case "HECTOR_DIST_* knobs" `Quick test_dist_knobs;
    Alcotest.test_case "Replica.Config record" `Quick test_replica_config;
    Alcotest.test_case "overlap lowers the comm ratio" `Quick test_overlap_reduces_comm_ratio;
    Alcotest.test_case "shared metrics envelope" `Quick test_metrics_schema_uniform;
    Alcotest.test_case "rgcn forward exact at 1/2/4" `Quick
      (test_forward_exact "rgcn" ~compact:false ~fusion:false);
    Alcotest.test_case "rgat forward exact at 1/2/4" `Quick
      (test_forward_exact "rgat" ~compact:true ~fusion:true);
    Alcotest.test_case "two-layer forward exact at 1/2/4" `Quick test_multilayer_forward_exact;
    Alcotest.test_case "rgcn training exact at 1/2/4" `Quick
      (test_train_exact "rgcn" ~compact:false ~fusion:false);
    Alcotest.test_case "rgat training exact at 1/2/4" `Quick
      (test_train_exact "rgat" ~compact:false ~fusion:false);
    Alcotest.test_case "steady-state epochs allocate nothing" `Quick
      test_steady_state_no_alloc;
    Alcotest.test_case "comm time fully attributed" `Quick test_comm_attributed;
    Alcotest.test_case "one partition, no comm" `Quick test_single_partition_has_no_comm;
    QCheck_alcotest.to_alcotest prop_overlap_equals_bsp;
    QCheck_alcotest.to_alcotest prop_partition_every_edge_once;
    QCheck_alcotest.to_alcotest prop_partition_halo_complete;
    QCheck_alcotest.to_alcotest prop_partition_balance;
    QCheck_alcotest.to_alcotest prop_partition_deterministic;
  ]
