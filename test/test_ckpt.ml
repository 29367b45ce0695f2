(* Tests for the fault-tolerance subsystem: checkpoint format (bitwise
   round-trip, CRC corruption detection, retention), trainer fit/resume
   equivalence, distributed crash recovery via Failover, deterministic
   fault injection in Comms and Serve, the zero-overhead pin when faults
   are off, and crash-safe tuning-db writes. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Knobs = Hector_runtime.Knobs
module Tuning_db = Hector_runtime.Tuning_db
module Fault = Hector_ckpt.Fault
module Checkpoint = Hector_ckpt.Checkpoint
module Trainer = Hector_ckpt.Trainer
module Comms = Hector_dist.Comms
module Replica = Hector_dist.Replica
module Failover = Hector_dist.Failover
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Ss = Hector_stream.Stream_serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- fixtures ---------------------------------------------------------- *)

let parent =
  lazy
    (Gen.generate
       {
         Gen.name = "ckpt_parent";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 160;
         num_edges = 640;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 57;
       })

let serve_parent =
  lazy
    (Gen.generate
       {
         Gen.name = "ckpt_serve";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 160;
         num_edges = 600;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 33;
       })

let features_of graph dim =
  let rng = Rng.create 23 in
  T.randn rng [| graph.G.num_nodes; dim |]

let labels_of graph classes =
  Array.init graph.G.num_nodes (fun v -> (graph.G.node_type.(v) + v) mod classes)

let compile_model ?(training = true) model =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training ~compact:false ~fusion:false ())
    (Hector_models.Model_defs.by_name model ~in_dim:6 ~out_dim:4 ())

let quiet_comms () = Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ()
let rgcn8 () = Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:4 ()

let max_weight_diff a b =
  List.fold_left
    (fun acc (name, w) ->
      match List.assoc_opt name b with
      | Some w' -> Float.max acc (T.max_abs_diff w w')
      | None -> Alcotest.fail (Printf.sprintf "weight %s missing" name))
    0.0 a

let bitwise_equal_weights a b =
  List.length a = List.length b
  && List.for_all
       (fun (name, w) ->
         match List.assoc_opt name b with
         | None -> false
         | Some w' ->
             let x = T.to_flat_array w and y = T.to_flat_array w' in
             Array.length x = Array.length y
             && Array.for_all2
                  (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
                  x y)
       a

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hector-ckpt-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* putenv + refresh, restoring the knob state afterwards (blank = unset) *)
let with_env bindings f =
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  ignore (Knobs.refresh ());
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, _) -> Unix.putenv k "") bindings;
      ignore (Knobs.refresh ()))
    f

let expect_corrupt label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Checkpoint.Corrupt")
  | exception Checkpoint.Corrupt _ -> ()

(* --- checkpoint format ------------------------------------------------- *)

let test_roundtrip_bitwise () =
  let rng = Rng.create 5 in
  let tensors =
    [
      ("layer0.w", T.randn rng [| 5; 7 |]);
      ("layer0.b", T.of_array [| 1; 4 |] [| 1e-300; -0.0; Float.pi; -1e300 |]);
      ("layer1.w", T.randn rng [| 3; 2 |]);
    ]
  in
  let ck =
    Checkpoint.create ~model:"rgcn" ~step:17 ~rng:0x1234_5678_9abcL ~epoch:2
      ~graph_version:40
      ~meta:[ ("lr", "0.05"); ("note", "quoted \"x\"\n") ]
      tensors
  in
  let ck' = Checkpoint.decode (Checkpoint.encode ck) in
  Alcotest.(check string) "model" "rgcn" (Checkpoint.model ck');
  check_int "step" 17 (Checkpoint.step ck');
  check_bool "rng cursor" true (Checkpoint.rng ck' = Some 0x1234_5678_9abcL);
  check_int "epoch" 2 (Checkpoint.epoch ck');
  check_int "graph version" 40 (Checkpoint.graph_version ck');
  check_bool "meta round-trips" true
    (List.assoc "note" (Checkpoint.meta ck') = "quoted \"x\"\n");
  check_bool "tensors bitwise equal" true
    (bitwise_equal_weights tensors (Checkpoint.tensors ck'));
  check_bool "shape preserved" true
    (T.shape (Option.get (Checkpoint.tensor ck' "layer0.b")) = [| 1; 4 |])

let test_corruption_detected () =
  let ck =
    Checkpoint.create ~step:1 [ ("w", T.randn (Rng.create 9) [| 4; 4 |]) ]
  in
  let s = Checkpoint.encode ck in
  let nl = String.index s '\n' in
  (* flipped payload byte -> CRC mismatch *)
  let flipped = Bytes.of_string s in
  Bytes.set flipped (nl + 4) (Char.chr (Char.code (Bytes.get flipped (nl + 4)) lxor 0xFF));
  expect_corrupt "payload flip" (fun () -> Checkpoint.decode (Bytes.to_string flipped));
  (* truncated payload *)
  expect_corrupt "truncation" (fun () ->
      Checkpoint.decode (String.sub s 0 (String.length s - 4)));
  (* wrong format tag *)
  expect_corrupt "foreign format" (fun () ->
      Checkpoint.decode "{\"format\":\"zzz\",\"version\":1}\n");
  (* a garbage file loads as Corrupt, never as a half-checkpoint *)
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "junk.hck" in
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a checkpoint");
      expect_corrupt "garbage file" (fun () -> Checkpoint.load path))

let test_save_latest_retention () =
  with_tmp_dir (fun dir ->
      let ck step =
        Checkpoint.create ~step [ ("w", T.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |]) ]
      in
      (* saves land under [dir] in step order regardless of save order *)
      List.iter (fun s -> ignore (Checkpoint.save ~dir (ck s))) [ 3; 1; 7 ];
      check_bool "list sorted by step" true
        (List.map fst (Checkpoint.list ~dir ()) = [ 1; 3; 7 ]);
      (match Checkpoint.latest ~dir () with
      | Some p -> check_int "latest is newest step" 7 (Checkpoint.step (Checkpoint.load p))
      | None -> Alcotest.fail "latest found nothing");
      (* retention: keep=2 deletes the oldest beyond two *)
      ignore (Checkpoint.save ~dir ~keep:2 (ck 9));
      check_bool "retention keeps 2 newest" true
        (List.map fst (Checkpoint.list ~dir ()) = [ 7; 9 ]);
      check_bool "filename embeds the step" true
        (Filename.basename (Option.get (Checkpoint.latest ~dir ()))
        = Checkpoint.filename 9))

let prop_tensor_roundtrip =
  QCheck.Test.make ~name:"checkpoint encode/decode is bitwise for random tensors"
    ~count:30
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let tensors =
        List.init
          (1 + (seed mod 3))
          (fun i ->
            ( Printf.sprintf "t%d" i,
              T.randn rng [| 1 + ((seed + i) mod 5); 1 + ((seed * 3) mod 7) |] ))
      in
      let ck = Checkpoint.create ~step:(seed mod 50) ~rng:(Int64.of_int seed) tensors in
      let ck' = Checkpoint.decode (Checkpoint.encode ck) in
      bitwise_equal_weights tensors (Checkpoint.tensors ck')
      && Checkpoint.rng ck' = Some (Int64.of_int seed))

(* --- trainer fit / resume ---------------------------------------------- *)

let test_trainer_resume model () =
  let graph = Lazy.force parent in
  let labels = labels_of graph 4 in
  let compiled = compile_model model in
  let base = Trainer.fit ~lr:0.05 ~graph ~labels ~steps:6 compiled in
  check_int "uninterrupted run has 6 losses" 6 (Array.length base.Trainer.losses);
  with_tmp_dir (fun dir ->
      let cut = Trainer.fit ~dir ~every:3 ~lr:0.05 ~graph ~labels ~steps:3 compiled in
      check_bool "interrupted run checkpointed" true (cut.Trainer.checkpoints <> []);
      let res = Trainer.resume ~dir ~lr:0.05 ~graph ~labels ~steps:6 compiled in
      check_int "resumed from step 3" 3 res.Trainer.start_step;
      check_int "resumed run covers the remainder" 3 (Array.length res.Trainer.losses);
      let replay = Array.append cut.Trainer.losses res.Trainer.losses in
      Array.iteri
        (fun i l ->
          check_bool
            (Printf.sprintf "%s loss %d matches uninterrupted (%.2e vs %.2e)" model i
               base.Trainer.losses.(i) l)
            true
            (abs_float (base.Trainer.losses.(i) -. l) <= 1e-6))
        replay;
      check_bool (model ^ " final weights bitwise equal") true
        (bitwise_equal_weights
           (Session.weights base.Trainer.session)
           (Session.weights res.Trainer.session)))

let prop_resume_roundtrip =
  QCheck.Test.make
    ~name:"resume == uninterrupted: bitwise weights, identical tail losses" ~count:6
    QCheck.(make Gen.(pair (int_range 0 1) (int_range 0 4)))
    (fun (model_i, seed_i) ->
      let model = [| "rgcn"; "rgat" |].(model_i) in
      let graph = Lazy.force parent in
      let labels = labels_of graph 4 in
      let compiled = compile_model model in
      let config = { Session.Config.default with Session.Config.seed = 11 + seed_i } in
      with_tmp_dir (fun dir ->
          let full = Trainer.fit ~config ~lr:0.05 ~graph ~labels ~steps:5 compiled in
          let _cut = Trainer.fit ~config ~dir ~every:2 ~lr:0.05 ~graph ~labels ~steps:2 compiled in
          let res = Trainer.resume ~config ~dir ~lr:0.05 ~graph ~labels ~steps:5 compiled in
          res.Trainer.start_step = 2
          && Array.length res.Trainer.losses = 3
          && Array.for_all2
               (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
               (Array.sub full.Trainer.losses 2 3)
               res.Trainer.losses
          && bitwise_equal_weights
               (Session.weights full.Trainer.session)
               (Session.weights res.Trainer.session)))

(* --- distributed resume and crash recovery ----------------------------- *)

let dist_config parts =
  {
    Replica.Config.default with
    Replica.Config.parts = Some parts;
    comms = Some (quiet_comms ());
  }

let test_dist_resume () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let compiled = compile_model "rgcn" in
  List.iter
    (fun parts ->
      let base =
        Failover.train ~config:(dist_config parts) ~lr:0.05 ~features ~graph ~labels
          ~steps:4 compiled
      in
      with_tmp_dir (fun dir ->
          let cut =
            Failover.train ~config:(dist_config parts) ~dir ~every:2 ~lr:0.05 ~features
              ~graph ~labels ~steps:2 compiled
          in
          check_bool "interrupted dist run checkpointed" true
            (cut.Failover.checkpoints <> []);
          let ckpt = Checkpoint.load (Option.get (Checkpoint.latest ~dir ())) in
          check_int "checkpoint carries the step" 2 (Checkpoint.step ckpt);
          (* rebuild a cluster from the checkpoint and replay the rest *)
          let cluster =
            Replica.create
              ~config:
                {
                  (dist_config parts) with
                  Replica.Config.weights = Some [ Checkpoint.tensors ckpt ];
                }
              ~features ~graph [ compiled ]
          in
          for step = 3 to 4 do
            let loss = Replica.train_step cluster ~lr:0.05 ~labels () in
            check_bool
              (Printf.sprintf "resumed loss at %d parts, step %d (%.2e vs %.2e)" parts
                 step base.Failover.losses.(step - 1) loss)
              true
              (abs_float (base.Failover.losses.(step - 1) -. loss) <= 1e-6)
          done;
          let d =
            max_weight_diff
              (Replica.weights_of base.Failover.cluster 0)
              (Replica.weights_of cluster 0)
          in
          check_bool
            (Printf.sprintf "resumed weights at %d parts (diff %.2e)" parts d)
            true (d <= 1e-6)))
    [ 1; 2; 4 ]

let crash_baseline =
  lazy
    (let graph = Lazy.force parent in
     Failover.train ~config:(dist_config 4) ~lr:0.05 ~features:(features_of graph 6)
       ~graph ~labels:(labels_of graph 4) ~steps:5 (compile_model "rgcn"))

let run_crash ~crash_step ~replica =
  let graph = Lazy.force parent in
  with_tmp_dir (fun dir ->
      let faults = Fault.create ~crash_at:(crash_step, replica) () in
      let r =
        Failover.train ~config:(dist_config 4) ~faults ~dir ~every:1 ~lr:0.05
          ~features:(features_of graph 6) ~graph ~labels:(labels_of graph 4) ~steps:5
          (compile_model "rgcn")
      in
      (r, faults))

let test_crash_recovery () =
  let base = Lazy.force crash_baseline in
  let r, _faults = run_crash ~crash_step:3 ~replica:1 in
  check_int "recovered run loses no steps" 5 (Array.length r.Failover.losses);
  Array.iteri
    (fun i l ->
      check_bool
        (Printf.sprintf "recovered loss %d on baseline trajectory (%.2e vs %.2e)" i
           base.Failover.losses.(i) l)
        true
        (abs_float (base.Failover.losses.(i) -. l) <= 1e-6))
    r.Failover.losses;
  check_int "survivors re-partitioned" 3 (Replica.parts r.Failover.cluster);
  check_bool "recovery time charged" true (r.Failover.recovery_ms > 0.0);
  let has p = List.exists p r.Failover.events in
  check_bool "crash event recorded" true (has (function Fault.Crashed _ -> true | _ -> false));
  check_bool "detection recorded" true (has (function Fault.Detected _ -> true | _ -> false));
  check_bool "restore recorded" true (has (function Fault.Restored _ -> true | _ -> false));
  let d =
    max_weight_diff
      (Replica.weights_of base.Failover.cluster 0)
      (Replica.weights_of r.Failover.cluster 0)
  in
  check_bool (Printf.sprintf "recovered weights on trajectory (diff %.2e)" d) true
    (d <= 1e-6)

let prop_crash_recovery =
  QCheck.Test.make
    ~name:"crash at any (step, replica) recovers onto the same trajectory" ~count:4
    QCheck.(make Gen.(pair (int_range 1 4) (int_range 0 3)))
    (fun (crash_step, replica) ->
      let base = Lazy.force crash_baseline in
      let r, _ = run_crash ~crash_step ~replica in
      Replica.parts r.Failover.cluster = 3
      && Array.length r.Failover.losses = 5
      && Array.for_all2
           (fun a b -> abs_float (a -. b) <= 1e-6)
           base.Failover.losses r.Failover.losses
      && max_weight_diff
           (Replica.weights_of base.Failover.cluster 0)
           (Replica.weights_of r.Failover.cluster 0)
         <= 1e-6
      && List.exists (function Fault.Restored _ -> true | _ -> false) r.Failover.events)

(* --- deterministic message faults -------------------------------------- *)

let faulted_run seed =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let faults = Fault.create ~seed ~rate:0.3 () in
  let comms = Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ~faults () in
  let cfg =
    { Replica.Config.default with Replica.Config.parts = Some 4; comms = Some comms }
  in
  let cluster = Replica.create ~config:cfg ~features ~graph [ compile_model "rgcn" ] in
  let losses = List.init 2 (fun _ -> Replica.train_step cluster ~lr:0.05 ~labels ()) in
  (Fault.trace faults, Fault.retries faults, losses, cluster)

let test_fault_trace_deterministic () =
  let trace1, retries1, losses1, cluster1 = faulted_run 9 in
  let trace2, retries2, losses2, cluster2 = faulted_run 9 in
  check_bool "some messages dropped under rate 0.3" true (retries1 > 0);
  check_int "same seed, same retry count" retries1 retries2;
  check_bool "same seed, same event trace" true (trace1 = trace2);
  check_bool "same seed, same losses" true (losses1 = losses2);
  check_bool "same seed, bitwise-equal weights" true
    (bitwise_equal_weights (Replica.weights_of cluster1 0) (Replica.weights_of cluster2 0));
  (* faults perturb only the simulated clock, never the numerics *)
  let graph = Lazy.force parent in
  let clean =
    Replica.create ~config:(dist_config 4) ~features:(features_of graph 6) ~graph
      [ compile_model "rgcn" ]
  in
  let labels = labels_of graph 4 in
  ignore (Replica.train_step clean ~lr:0.05 ~labels ());
  ignore (Replica.train_step clean ~lr:0.05 ~labels ());
  check_bool "faults are numerics-neutral" true
    (bitwise_equal_weights (Replica.weights_of clean 0) (Replica.weights_of cluster1 0));
  check_bool "drops and delays cost simulated time" true
    (Replica.elapsed_ms cluster1 > Replica.elapsed_ms clean)

let test_comms_zero_overhead () =
  let graph = Lazy.force parent in
  let features = features_of graph 6 in
  let labels = labels_of graph 4 in
  let train cfg =
    let cluster = Replica.create ~config:cfg ~features ~graph [ compile_model "rgcn" ] in
    ignore (Replica.train_step cluster ~lr:0.05 ~labels ());
    ignore (Replica.train_step cluster ~lr:0.05 ~labels ());
    cluster
  in
  let plain = train (dist_config 2) in
  let zero_plan = Fault.create ~rate:0.0 () in
  let zero_comms = Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ~faults:zero_plan () in
  let zero =
    train
      { Replica.Config.default with Replica.Config.parts = Some 2; comms = Some zero_comms }
  in
  check_bool "rate-0 plan: identical clock" true
    (Replica.elapsed_ms plain = Replica.elapsed_ms zero);
  check_int "rate-0 plan: identical launches" (Replica.launches plain)
    (Replica.launches zero);
  check_bool "rate-0 plan: bitwise-equal weights" true
    (bitwise_equal_weights (Replica.weights_of plain 0) (Replica.weights_of zero 0));
  check_bool "rate-0 plan: no events" true (Fault.events zero_plan = []);
  check_int "rate-0 plan: no retries" 0 (Fault.retries zero_plan)

(* --- serving under faults ---------------------------------------------- *)

let exact_config ?faults graph =
  {
    Serve.default_config with
    Serve.fanout = Serve.exact_fanout graph;
    hops = 2;
    max_batch = Some 6;
    max_wait_ms = 5.0;
    queue_capacity = Some 64;
    faults;
  }

let strace ?(requests = 12) graph =
  Workload.generate
    ~spec:
      { Workload.default_spec with Workload.requests; rate_rps = 2000.0; seeds_per_request = 3 }
    ~num_nodes:graph.G.num_nodes ()

let outputs_of responses =
  Array.map
    (fun (r : Serve.response) ->
      match r.Serve.output with
      | Some o -> o
      | None -> Alcotest.fail "request unexpectedly shed")
    responses

let max_abs_diff_outputs a b =
  let d = ref 0.0 in
  Array.iteri
    (fun i ai ->
      for r = 0 to T.rows ai - 1 do
        for c = 0 to T.cols ai - 1 do
          d := Float.max !d (abs_float (T.get2 ai r c -. T.get2 b.(i) r c))
        done
      done)
    a;
  !d

let test_serve_retry_then_serve () =
  let graph = Lazy.force serve_parent in
  let requests = strace graph in
  let clean = Serve.create ~config:(exact_config graph) ~graph (rgcn8 ()) in
  let reference = outputs_of (Serve.serve clean requests) in
  let faults = Fault.create ~fail_batches:[ 0 ] () in
  let server = Serve.create ~config:(exact_config ~faults graph) ~graph (rgcn8 ()) in
  let responses = Serve.serve server requests in
  check_int "first micro-batch failed" 1 (Serve.batch_failures server);
  check_int "retry succeeded: nothing shed" 0 (Serve.shed server);
  check_int "nothing shed to the fault path" 0 (Serve.fault_shed server);
  check_int "every request served" (Array.length requests) (Serve.served server);
  let ls = Serve.load_stats server in
  check_int "every request accounted" ls.Serve.requests
    (Serve.served server + Serve.shed server + Serve.rejected server);
  check_bool "retried outputs match the fault-free replica" true
    (max_abs_diff_outputs reference (outputs_of responses) <= 1e-6);
  (match Serve.faults server with
  | Some plan ->
      let has p = List.exists p (Fault.events plan) in
      check_bool "batch failure witnessed" true
        (has (function Fault.Batch_failed _ -> true | _ -> false));
      check_bool "retries witnessed" true
        (has (function Fault.Request_retried _ -> true | _ -> false))
  | None -> Alcotest.fail "server lost its fault plan")

let test_serve_retry_then_shed () =
  let graph = Lazy.force serve_parent in
  let requests = strace graph in
  let faults = Fault.create ~seed:5 ~rate:1.0 () in
  let server = Serve.create ~config:(exact_config ~faults graph) ~graph (rgcn8 ()) in
  let responses = Serve.serve server requests in
  check_int "nothing served when every batch fails" 0 (Serve.served server);
  check_bool "every admitted request shed" true (Serve.shed server > 0);
  check_int "all shedding attributed to faults" (Serve.shed server)
    (Serve.fault_shed server);
  let ls = Serve.load_stats server in
  check_int "degradation never silent: all accounted" ls.Serve.requests
    (Serve.served server + Serve.shed server + Serve.rejected server);
  Array.iter
    (fun (r : Serve.response) ->
      check_bool "shed response carries no output" true (r.Serve.output = None))
    responses;
  check_bool "sheds witnessed in the trace" true
    (List.exists (function Fault.Request_shed _ -> true | _ -> false) (Fault.events faults))

let test_serve_zero_overhead () =
  let graph = Lazy.force serve_parent in
  let requests = strace graph in
  let run faults =
    let server = Serve.create ~config:(exact_config ?faults graph) ~graph (rgcn8 ()) in
    let out = outputs_of (Serve.serve server requests) in
    (server, out)
  in
  let plain, out_plain = run None in
  let zero_plan = Fault.create ~rate:0.0 () in
  let zero, out_zero = run (Some zero_plan) in
  check_bool "rate-0 plan: identical outputs" true
    (max_abs_diff_outputs out_plain out_zero = 0.0);
  check_int "rate-0 plan: identical launches" (Serve.launches plain) (Serve.launches zero);
  check_int "rate-0 plan: no batch failures" 0 (Serve.batch_failures zero);
  check_bool "rate-0 plan: empty trace" true (Fault.events zero_plan = [])

(* --- streaming checkpoint ---------------------------------------------- *)

let test_stream_checkpoint () =
  let g =
    Gen.generate
      {
        Gen.name = "ckpt_stream";
        num_ntypes = 3;
        num_etypes = 6;
        num_nodes = 120;
        num_edges = 420;
        compaction_target = 0.5;
        scale = 1.0;
        seed = 21;
      }
  in
  let features = T.randn (Rng.create 22) [| g.G.num_nodes; 8 |] in
  let mg = Mg.create ~graph:g ~features () in
  let config =
    {
      Serve.default_config with
      Serve.fanout = 8;
      hops = 2;
      max_batch = Some 4;
      max_wait_ms = 5.0;
      queue_capacity = Some 64;
    }
  in
  let ss = Ss.create ~config ~mg (rgcn8 ()) in
  let ck = Ss.checkpoint ss in
  check_int "checkpoint carries the epoch" (Mg.epoch mg) (Checkpoint.epoch ck);
  check_int "checkpoint carries the delta version" (Mg.version mg)
    (Checkpoint.graph_version ck);
  check_bool "checkpoint pins the live weights" true
    (bitwise_equal_weights (Serve.model_weights (Ss.replica ss)) (Checkpoint.tensors ck));
  let d = Delta.generate ~view:(Mg.view mg) ~seed:5 ~ops:6 () in
  (match Ss.apply ss d with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("delta rejected: " ^ e));
  let ck' = Ss.checkpoint ss in
  check_int "version tracks applied deltas" (Mg.version mg) (Checkpoint.graph_version ck');
  check_bool "version advanced" true
    (Checkpoint.graph_version ck' > Checkpoint.graph_version ck)

(* --- knob plumbing ------------------------------------------------------ *)

let test_fault_knobs () =
  check_bool "no fault knobs -> no plan" true (Fault.of_knobs () = None);
  with_env
    [ ("HECTOR_FAULT_RATE", "0.25"); ("HECTOR_FAULT_SEED", "7") ]
    (fun () ->
      match Fault.of_knobs () with
      | Some plan ->
          check_bool "knob rate" true (Fault.rate plan = 0.25);
          check_int "knob seed" 7 (Fault.seed plan)
      | None -> Alcotest.fail "HECTOR_FAULT_* knobs ignored");
  check_bool "cleared knobs -> no plan again" true (Fault.of_knobs () = None)

let test_ckpt_knobs () =
  with_tmp_dir (fun dir ->
      with_env
        [ ("HECTOR_CKPT_DIR", dir); ("HECTOR_CKPT_KEEP", "1") ]
        (fun () ->
          let ck step =
            Checkpoint.create ~step [ ("w", T.of_array [| 1; 2 |] [| 0.5; -0.5 |]) ]
          in
          let p1 = Checkpoint.save (ck 1) in
          check_bool "HECTOR_CKPT_DIR directs the save" true (Filename.dirname p1 = dir);
          ignore (Checkpoint.save (ck 2));
          match Checkpoint.list () with
          | [ (2, p) ] -> check_int "HECTOR_CKPT_KEEP retains one" 2 (Checkpoint.step (Checkpoint.load p))
          | l -> Alcotest.fail (Printf.sprintf "expected 1 checkpoint, found %d" (List.length l))))

(* --- crash-safe tuning-db writes ---------------------------------------- *)

let test_tuning_db_partial_write () =
  with_tmp_dir (fun dir ->
      let g = Lazy.force parent in
      let db = Tuning_db.create () in
      Tuning_db.record db ~model:"fp-ckpt" ~model_name:"rgcn" ~device:"RTX 3090"
        ~training:false
        ~signature:(Tuning_db.signature g)
        ~options:(Compiler.options_of_flags ~training:false ~compact:false ~fusion:false ())
        ~estimated_ms:1.0 ~measured_ms:0.9;
      let path = Filename.concat dir "tuning.json" in
      Tuning_db.save db path;
      (* a crashed writer's leftover temp file never corrupts the db *)
      let stale = path ^ ".stale.tmp" in
      Out_channel.with_open_bin stale (fun oc -> output_string oc "{\"entries\": [tru");
      check_int "db intact beside a stale temp file" 1 (Tuning_db.size (Tuning_db.load path));
      (* the atomic save itself leaves no droppings *)
      check_int "save leaves only db + stale file" 2 (Array.length (Sys.readdir dir));
      (* a torn (half-written) file is never half-loaded: the decoder
         rejects it, and load degrades to an empty db (tuning falls back
         to the cost model rather than trusting a torso) *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let half = String.sub full 0 (String.length full / 2) in
      (match Tuning_db.of_json half with
      | _ -> Alcotest.fail "torn tuning db decoded as if intact"
      | exception Tuning_db.Malformed -> ());
      let torn = Filename.concat dir "torn.json" in
      Out_channel.with_open_bin torn (fun oc -> output_string oc half);
      check_int "torn file loads as empty, not as a torso" 0
        (Tuning_db.size (Tuning_db.load torn));
      (* saving over an existing file replaces it atomically *)
      Tuning_db.record db ~model:"fp-ckpt2" ~model_name:"rgat" ~device:"RTX 3090"
        ~training:true
        ~signature:(Tuning_db.signature g)
        ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
        ~estimated_ms:2.0 ~measured_ms:1.8;
      Tuning_db.save db path;
      check_int "overwrite lands the new generation" 2
        (Tuning_db.size (Tuning_db.load path)))

let suite =
  [
    Alcotest.test_case "checkpoint round-trips bitwise" `Quick test_roundtrip_bitwise;
    Alcotest.test_case "corruption is detected" `Quick test_corruption_detected;
    Alcotest.test_case "save / latest / retention" `Quick test_save_latest_retention;
    Alcotest.test_case "rgcn resume == uninterrupted" `Quick (test_trainer_resume "rgcn");
    Alcotest.test_case "rgat resume == uninterrupted" `Quick (test_trainer_resume "rgat");
    Alcotest.test_case "dist resume exact at 1/2/4 parts" `Quick test_dist_resume;
    Alcotest.test_case "crash recovery replays the trajectory" `Quick test_crash_recovery;
    Alcotest.test_case "fault trace deterministic, numerics-neutral" `Quick
      test_fault_trace_deterministic;
    Alcotest.test_case "rate-0 plan == no plan (comms)" `Quick test_comms_zero_overhead;
    Alcotest.test_case "failed micro-batch retries, then serves" `Quick
      test_serve_retry_then_serve;
    Alcotest.test_case "second failure sheds, witnessed" `Quick test_serve_retry_then_shed;
    Alcotest.test_case "rate-0 plan == no plan (serve)" `Quick test_serve_zero_overhead;
    Alcotest.test_case "stream checkpoint carries epoch/version/weights" `Quick
      test_stream_checkpoint;
    Alcotest.test_case "HECTOR_FAULT_* knobs build the plan" `Quick test_fault_knobs;
    Alcotest.test_case "HECTOR_CKPT_* knobs drive save/retention" `Quick test_ckpt_knobs;
    Alcotest.test_case "tuning db survives partial writes" `Quick
      test_tuning_db_partial_write;
    QCheck_alcotest.to_alcotest prop_tensor_roundtrip;
    QCheck_alcotest.to_alcotest prop_resume_roundtrip;
    QCheck_alcotest.to_alcotest prop_crash_recovery;
  ]
