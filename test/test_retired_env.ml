(* Regression test for the single configuration path: the retired HECTOR_*
   environment variables (every one except HECTOR_DOMAINS) must change no
   default.  With all sixteen set to valid non-default values, default
   configurations still yield the built-in defaults and the fused plan.

   This is its own executable so the variables are set in a process where
   no library has read its configuration yet: an implementation that read
   and cached the environment at first use would see them here. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Plan = Hector_core.Plan
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Comms = Hector_dist.Comms
module Replica = Hector_dist.Replica
module Serve = Hector_serve.Serve
module Mg = Hector_stream.Mutable_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let retired =
  [
    ("HECTOR_FUSE_OPS", "0");
    ("HECTOR_OBS", "1");
    ("HECTOR_SERVE_BATCH", "3");
    ("HECTOR_SERVE_QUEUE", "5");
    ("HECTOR_DIST_PARTS", "4");
    ("HECTOR_DIST_LATENCY_US", "2.5");
    ("HECTOR_DIST_BW_GBS", "100");
    ("HECTOR_DIST_CHANNELS", "4");
    ("HECTOR_DIST_BUCKET_KB", "128");
    ("HECTOR_TUNE_DB", tmp "hector-retired-db.json");
    ("HECTOR_STREAM_SLACK", "2");
    ("HECTOR_STREAM_COMPACT", "0.5");
    ("HECTOR_CKPT_DIR", tmp "hector-retired-ckpt");
    ("HECTOR_CKPT_KEEP", "1");
    ("HECTOR_FAULT_SEED", "7");
    ("HECTOR_FAULT_RATE", "0.5");
  ]

(* set the variables for the duration of [f], then restore what was there
   (blank reads as unset) *)
let with_retired_env f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) retired in
  List.iter (fun (k, v) -> Unix.putenv k v) retired;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (k, v) -> Unix.putenv k (Option.value v ~default:"")) saved)
    f

let graph =
  lazy
    (Gen.generate
       {
         Gen.name = "retired_env";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 120;
         num_edges = 480;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 5;
       })

let rgcn () = Hector_models.Model_defs.by_name "rgcn" ~in_dim:8 ~out_dim:4 ()

let test_defaults_ignore_env () =
  with_retired_env @@ fun () ->
  let graph = Lazy.force graph in
  let compiled = Compiler.compile (rgcn ()) in
  check_bool "default compile fuses" true (Plan.fused_count compiled.Compiler.forward > 0);
  let session = Session.create ~graph compiled in
  check_bool "session observability off" false (Hector_obs.enabled (Session.obs session));
  let c = Comms.default () in
  check_bool "comms latency 5 us" true (c.Comms.latency_us = 5.0);
  check_bool "comms bandwidth 25 GB/s" true (c.Comms.bandwidth_gbs = 25.0);
  check_bool "comms without fault plan" true (c.Comms.faults = None);
  let features = T.randn (Rng.create 3) [| graph.G.num_nodes; 8 |] in
  let cluster = Replica.create ~features ~graph [ compiled ] in
  check_int "replica parts" 2 (Replica.parts cluster);
  let server = Serve.create ~graph (rgcn ()) in
  check_int "serve max_batch" 8 (Serve.max_batch server);
  check_int "serve queue_capacity" 64 (Serve.queue_capacity server);
  check_bool "serve observability off" false (Hector_obs.enabled (Serve.obs server));
  check_bool "serve without fault plan" true (Serve.faults server = None);
  let mg = Mg.create ~graph ~features () in
  let _, live = G.nodes_of_type graph 0 in
  check_int "mutable graph default slack"
    (max 1 (int_of_float (ceil ((1.0 +. Mg.default_slack) *. float_of_int live))))
    (Mg.node_capacity mg 0)

let () =
  Alcotest.run "hector_config"
    [
      ( "config",
        [
          Alcotest.test_case "retired HECTOR_* vars keep defaults" `Quick
            test_defaults_ignore_env;
        ] );
    ]
