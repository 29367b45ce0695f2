(* Tests for the cost-model-guided autotuner and the persistent tuning
   database: estimator exactness, top-k ranking quality, relabel-invariant
   graph signatures, DB round-trips and the zero-search / zero-compile
   admission pin for warm database hits. *)

module Compiler = Hector_core.Compiler
module Ir = Hector_core.Inter_ir
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Dp = Hector_tensor.Domain_pool
module Device = Hector_gpu.Device
module Autotune = Hector_runtime.Autotune
module Tuning_db = Hector_runtime.Tuning_db
module Knobs = Hector_runtime.Knobs
module Workload = Hector_serve.Workload
module Serve = Hector_serve.Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph_of_seed ?(num_nodes = 120) ?(num_edges = 400) seed =
  Gen.generate
    {
      Gen.name = Printf.sprintf "tune_%d" seed;
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes;
      num_edges;
      compaction_target = 0.4;
      scale = 1.0;
      seed;
    }

let model_names = [| "rgcn"; "rgat"; "hgt" |]
let model_of_idx i = Hector_models.Model_defs.by_name model_names.(i) ~in_dim:8 ~out_dim:4 ()
let options_id = Compiler.options_id

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

(* --- stage 1: the analytic estimator ------------------------------- *)

(* The simulator is deterministic and the estimator replays the same
   launch descriptors, so the prediction must agree with the measured
   steady-state epoch on every candidate the search measures — and the
   measured winner must sit inside the estimator's top-k ranking (the
   whole point of pruning the space by estimate). *)
let prop_best_in_topk =
  QCheck.Test.make ~name:"measured best lies in the estimator top-k" ~count:5
    QCheck.(make Gen.(triple (int_range 0 2) (int_range 0 40) (int_range 1 2)))
    (fun (model_idx, seed, domains) ->
      with_domains domains (fun () ->
          let graph = graph_of_seed seed in
          let training = seed mod 2 = 0 in
          let top_k = 4 in
          let r = Autotune.search ~training ~top_k ~graph (model_of_idx model_idx) in
          let top_ids =
            List.filteri (fun i _ -> i < top_k) r.Autotune.ranked
            |> List.map (fun (c : Autotune.candidate) -> options_id c.Autotune.options)
          in
          let as_fast_in_top =
            List.exists
              (fun (c : Autotune.candidate) ->
                List.mem (options_id c.Autotune.options) top_ids
                && c.Autotune.time_ms <= r.Autotune.best.Autotune.time_ms +. 1e-9)
              r.Autotune.all
          in
          let exact =
            List.for_all
              (fun (c : Autotune.candidate) ->
                (not (Float.is_finite c.Autotune.time_ms))
                || Float.abs (c.Autotune.estimated_ms -. c.Autotune.time_ms)
                   <= 1e-6 *. Float.max 1.0 c.Autotune.time_ms)
              r.Autotune.all
          in
          as_fast_in_top && exact))

let test_estimator_exact_fixed_layouts () =
  (* schedules:false measures all four U/C/F/C+F configurations; each
     estimate must match its measurement bit-for-bit on the simulator *)
  let graph = graph_of_seed 7 in
  let r = Autotune.search ~schedules:false ~graph (model_of_idx 1) in
  check_int "four candidates" 4 (List.length r.Autotune.all);
  List.iter
    (fun (c : Autotune.candidate) ->
      if Float.is_finite c.Autotune.time_ms then
        check_bool
          (Printf.sprintf "estimate matches measurement for %s" (options_id c.Autotune.options))
          true
          (Float.abs (c.Autotune.estimated_ms -. c.Autotune.time_ms) <= 1e-9))
    r.Autotune.all

(* --- graph signatures ---------------------------------------------- *)

(* Shuffle node ids within each type block (node types must stay sorted)
   and rebuild the graph: a pure relabeling of the same graph. *)
let relabel g seed =
  let perm = Array.init g.G.num_nodes (fun i -> i) in
  let st = Random.State.make [| seed |] in
  for t = 0 to G.num_ntypes g - 1 do
    let start, count = G.nodes_of_type g t in
    for i = count - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = perm.(start + i) in
      perm.(start + i) <- perm.(start + j);
      perm.(start + j) <- tmp
    done
  done;
  let edges =
    Array.init g.G.num_edges (fun e ->
        (perm.(g.G.src.(e)), perm.(g.G.dst.(e)), g.G.etype.(e)))
  in
  G.create ~name:(g.G.name ^ "_relabel") ~scale:g.G.scale ~metagraph:g.G.metagraph
    ~node_type:g.G.node_type ~edges ()

let signature_equal (a : Tuning_db.signature) (b : Tuning_db.signature) =
  a.Tuning_db.nodes_per_ntype = b.Tuning_db.nodes_per_ntype
  && a.Tuning_db.edges_per_etype = b.Tuning_db.edges_per_etype
  && Float.abs (a.Tuning_db.mean_degree -. b.Tuning_db.mean_degree) < 1e-12

let prop_signature_stable =
  QCheck.Test.make ~name:"graph signature deterministic and relabel-invariant" ~count:25
    QCheck.(make Gen.(pair (int_range 0 100) (int_range 1 1000)))
    (fun (seed, relabel_seed) ->
      let g = graph_of_seed seed in
      signature_equal (Tuning_db.signature g) (Tuning_db.signature (graph_of_seed seed))
      && signature_equal (Tuning_db.signature g) (Tuning_db.signature (relabel g relabel_seed)))

(* --- stage 2: the persistent database ------------------------------ *)

let sample_entry ?(model = "fp-1") ?(device = "RTX 3090") ?(training = false)
    ?(options = Compiler.options_of_flags ~compact:true ~fusion:true ()) graph =
  (model, device, training, Tuning_db.signature graph, options)

let record_sample db (model, device, training, signature, options) =
  Tuning_db.record db ~model ~model_name:"rgat" ~device ~training ~signature ~options
    ~estimated_ms:0.125 ~measured_ms:0.125

let test_db_roundtrip () =
  let db = Tuning_db.create () in
  let g300 = graph_of_seed 3 in
  let g_alt = graph_of_seed ~num_nodes:260 ~num_edges:900 4 in
  record_sample db (sample_entry g300);
  record_sample db
    (sample_entry ~model:"fp-2"
       ~options:
         {
           (Compiler.options_of_flags ~compact:false ~fusion:true ()) with
           Compiler.gemm_schedule =
             { Hector_core.Gemm_spec.tile_width = 32; coarsen = 2; launch_bounds = true };
           fuse_ops = Some false;
         }
       g_alt);
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tuning_db.save db path;
      let loaded = Tuning_db.load path in
      check_int "round-trip size" (Tuning_db.size db) (Tuning_db.size loaded);
      List.iter2
        (fun (a : Tuning_db.entry) (b : Tuning_db.entry) ->
          check_bool "entry model" true (a.Tuning_db.model = b.Tuning_db.model);
          check_bool "entry options" true
            (options_id a.Tuning_db.options = options_id b.Tuning_db.options);
          check_bool "entry measured" true
            (a.Tuning_db.measured_ms = b.Tuning_db.measured_ms);
          check_bool "entry signature" true
            (signature_equal a.Tuning_db.signature b.Tuning_db.signature))
        (Tuning_db.entries db) (Tuning_db.entries loaded);
      (* a lookup against the reloaded database behaves identically *)
      match
        ( Tuning_db.lookup db ~model:"fp-1" ~device:"RTX 3090" ~training:false
            (Tuning_db.signature g300),
          Tuning_db.lookup loaded ~model:"fp-1" ~device:"RTX 3090" ~training:false
            (Tuning_db.signature g300) )
      with
      | Some (Tuning_db.Exact a), Some (Tuning_db.Exact b) ->
          check_bool "lookup identity" true
            (options_id a.Tuning_db.options = options_id b.Tuning_db.options)
      | _ -> Alcotest.fail "expected exact hits from both databases")

(* A database as the first writer laid it out: one entry per line, every
   float at 17 significant digits. *)
let test_db_old_layout () =
  let db =
    Tuning_db.of_json
      "{\"version\":1,\"entries\":[\n\
      \  {\"model\":\"8a5e\",\"model_name\":\"rgat\",\"device\":\"RTX 3090\",\"training\":false,\
       \"nodes\":[292,168],\"edges\":[1138,574,379],\"mean_degree\":6.718924972004479,\
       \"options\":{\"compact\":true,\"csr\":false,\"presorted\":true,\"fusion\":true,\
       \"training\":false,\"tile\":32,\"coarsen\":2,\"launch_bounds\":true,\
       \"warp_accumulate\":true,\"node_gather\":false,\"fuse_ops\":true},\
       \"options_id\":\"C+F:coo:t32c2+lb:warp:fuse\",\"estimated_ms\":0.2792470203994788,\
       \"measured_ms\":0.27924702039947881}\n\
       ]}\n"
  in
  match Tuning_db.entries db with
  | [ e ] ->
      Alcotest.(check string) "options" "C+F:coo:t32c2+lb:warp:fuse" (options_id e.Tuning_db.options);
      check_bool "signature" true
        (e.Tuning_db.signature.Tuning_db.nodes_per_ntype = [| 292; 168 |]
        && e.Tuning_db.signature.Tuning_db.edges_per_etype = [| 1138; 574; 379 |]
        && e.Tuning_db.signature.Tuning_db.mean_degree = 6.718924972004479);
      check_bool "measured" true (e.Tuning_db.measured_ms = 0.2792470203994788);
      check_bool "re-written and re-read unchanged" true
        (Tuning_db.entries (Tuning_db.of_json (Tuning_db.to_json db)) = [ e ])
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l)

let test_db_load_corrupt_and_missing () =
  check_int "missing file is empty" 0 (Tuning_db.size (Tuning_db.load "/nonexistent/tunedb.json"));
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{ not json ]";
      close_out oc;
      check_int "corrupt file is empty" 0 (Tuning_db.size (Tuning_db.load path)))

let test_lookup_ladder () =
  let db = Tuning_db.create () in
  let g = graph_of_seed 3 in
  (* same type-structure shape, ~4x the size: lands in different buckets *)
  let g_big = graph_of_seed ~num_nodes:480 ~num_edges:1600 3 in
  record_sample db (sample_entry g);
  (match Tuning_db.lookup db ~model:"fp-1" ~device:"RTX 3090" ~training:false (Tuning_db.signature g) with
  | Some (Tuning_db.Exact _) -> ()
  | _ -> Alcotest.fail "expected an exact hit for the recorded signature");
  (match
     Tuning_db.lookup db ~model:"fp-1" ~device:"RTX 3090" ~training:false
       (Tuning_db.signature g_big)
   with
  | Some (Tuning_db.Nearest _) -> ()
  | Some (Tuning_db.Exact _) -> Alcotest.fail "4x graph should not bucketize identically"
  | None -> Alcotest.fail "same-shaped signature should find a nearest entry");
  (* wrong model / device / training: no rung of the ladder applies *)
  check_bool "other model misses" true
    (Tuning_db.lookup db ~model:"fp-other" ~device:"RTX 3090" ~training:false
       (Tuning_db.signature g)
    = None);
  check_bool "other device misses" true
    (Tuning_db.lookup db ~model:"fp-1" ~device:"A100" ~training:false (Tuning_db.signature g)
    = None);
  check_bool "training flag misses" true
    (Tuning_db.lookup db ~model:"fp-1" ~device:"RTX 3090" ~training:true (Tuning_db.signature g)
    = None);
  (* once the big graph is recorded too, its exact entry wins over nearest *)
  record_sample db
    (sample_entry ~options:(Compiler.options_of_flags ~compact:false ~fusion:false ()) g_big);
  match
    Tuning_db.lookup db ~model:"fp-1" ~device:"RTX 3090" ~training:false
      (Tuning_db.signature g_big)
  with
  | Some (Tuning_db.Exact e) ->
      check_bool "exact beats nearest" true
        (options_id e.Tuning_db.options
        = options_id (Compiler.options_of_flags ~compact:false ~fusion:false ()))
  | _ -> Alcotest.fail "expected the freshly recorded exact entry"

let test_warmup_writes_back_then_hits () =
  let graph = graph_of_seed 11 in
  let program = model_of_idx 0 in
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Autotune.reset_counters ();
      let first = Autotune.warmup ~db_path:path ~graph program in
      check_int "cold warmup searches once" 1 (Autotune.search_count ());
      check_bool "database persisted" true (Sys.file_exists path);
      Autotune.reset_counters ();
      let second = Autotune.warmup ~db_path:path ~graph program in
      check_int "warm warmup does not search" 0 (Autotune.search_count ());
      check_int "warm warmup compiles no candidates" 0 (Autotune.candidate_compiles ());
      check_bool "warm hit returns the recorded winner" true
        (options_id first = options_id second))

(* --- the admission pin --------------------------------------------- *)

let test_warm_db_admission_zero_search () =
  (* Counter-witnessed: with a warm tuning database, creating a serving
     replica (autotune enabled) and serving requests performs ZERO
     autotune searches, candidate compiles and measured runs — the
     admission path resolves options purely by database lookup. *)
  let graph =
    Gen.generate
      {
        Gen.name = "tune_serve";
        num_ntypes = 3;
        num_etypes = 6;
        num_nodes = 200;
        num_edges = 800;
        compaction_target = 0.5;
        scale = 1.0;
        seed = 33;
      }
  in
  let program = Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:4 () in
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* warm the database off the request path *)
      let db = Tuning_db.create () in
      ignore (Autotune.search ~db ~graph program);
      Tuning_db.save db path;
      Autotune.reset_counters ();
      let config =
        {
          Serve.default_config with
          Serve.fanout = Serve.exact_fanout graph;
          hops = 2;
          max_batch = Some 4;
          max_wait_ms = 5.0;
          queue_capacity = Some 64;
          autotune = true;
          tune_db = Some path;
        }
      in
      let server = Serve.create ~config ~graph program in
      check_int "admission performs zero searches" 0 (Autotune.search_count ());
      check_int "admission compiles zero candidates" 0 (Autotune.candidate_compiles ());
      check_int "admission measures zero candidates" 0 (Autotune.measured_runs ());
      let requests =
        Workload.generate
          ~spec:{ Workload.default_spec with Workload.requests = 6; seeds_per_request = 2 }
          ~num_nodes:graph.G.num_nodes ()
      in
      let responses = Serve.serve server requests in
      check_int "all requests answered" (Array.length requests) (Array.length responses);
      check_int "serving performs zero searches" 0 (Autotune.search_count ());
      check_int "serving compiles zero candidates" 0 (Autotune.candidate_compiles ());
      check_int "serving measures zero candidates" 0 (Autotune.measured_runs ()))

let test_cold_db_with_autotune_searches_once () =
  (* the complementary direction: an empty database plus autotune:true
     searches exactly once at warmup and records the winner back *)
  let graph = graph_of_seed ~num_nodes:150 ~num_edges:500 21 in
  let program = Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:4 () in
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Autotune.reset_counters ();
      let config =
        {
          Serve.default_config with
          Serve.fanout = Serve.exact_fanout graph;
          hops = 2;
          autotune = true;
          tune_db = Some path;
        }
      in
      ignore (Serve.create ~config ~graph program);
      check_int "cold warmup searches once" 1 (Autotune.search_count ());
      check_bool "winner recorded for the next replica" true
        (Sys.file_exists path && Tuning_db.size (Tuning_db.load path) = 1))

(* --- knob ----------------------------------------------------------- *)

let test_tune_db_knob () =
  let with_env value = Knobs.parse (fun k -> if k = "HECTOR_TUNE_DB" then value else None) in
  check_bool "set" true ((with_env (Some "/tmp/db.json")).Knobs.tune_db = Some "/tmp/db.json");
  check_bool "trimmed" true ((with_env (Some "  /tmp/db.json ")).Knobs.tune_db = Some "/tmp/db.json");
  check_bool "empty is off" true ((with_env (Some "")).Knobs.tune_db = None);
  check_bool "absent is off" true ((with_env None).Knobs.tune_db = None)

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:true prop_best_in_topk;
    Alcotest.test_case "estimator exact on fixed layouts" `Quick test_estimator_exact_fixed_layouts;
    QCheck_alcotest.to_alcotest prop_signature_stable;
    Alcotest.test_case "tuning DB round-trip" `Quick test_db_roundtrip;
    Alcotest.test_case "tuning DB in the old layout loads" `Quick test_db_old_layout;
    Alcotest.test_case "tuning DB corrupt/missing load" `Quick test_db_load_corrupt_and_missing;
    Alcotest.test_case "lookup ladder" `Quick test_lookup_ladder;
    Alcotest.test_case "warmup writes back then hits" `Quick test_warmup_writes_back_then_hits;
    Alcotest.test_case "warm DB admission: zero search/compile" `Quick
      test_warm_db_admission_zero_search;
    Alcotest.test_case "cold DB with autotune searches once" `Quick
      test_cold_db_with_autotune_searches_once;
    Alcotest.test_case "HECTOR_TUNE_DB knob" `Quick test_tune_db_knob;
  ]
