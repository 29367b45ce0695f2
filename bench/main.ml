(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the GPU simulator, and runs the regression suites
   behind the committed BENCH_*.json baselines.

   Usage:
     bench/main.exe                        run all tables and figures
     bench/main.exe --table5 --fig6        run selected experiments
     bench/main.exe --suite serve,dist     run suites, writing BENCH_<suite>.json
     bench/main.exe --suite all --check .  also gate each against ./BENCH_<suite>.json
     bench/main.exe --max-edges 9000       larger physical replicas (slower)  *)

module H = Hector_experiments.Harness
module G = Hector_graph.Hetgraph
module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Session = Hector_runtime.Session
module Compiler = Hector_core.Compiler
module Models = Hector_models.Model_defs
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Autotune = Hector_runtime.Autotune
module Comms = Hector_dist.Comms
module Replica = Hector_dist.Replica
module Failover = Hector_dist.Failover
module Fault = Hector_ckpt.Fault
module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Ss = Hector_stream.Stream_serve

let experiments : (string * string * (H.t -> unit)) list =
  [
    ("--table1", "Table 1: FLOP/memory/launch analysis of a_HGT", Hector_experiments.Table1.run);
    ("--fig1", "Figure 1: Graphiler vs Hector inference breakdown", Hector_experiments.Fig1.run);
    ("--table2", "Table 2: compiler feature matrix", Hector_experiments.Table2.run);
    ("--table4", "Table 4: datasets", Hector_experiments.Table4.run);
    ("--fig5", "Figure 5: Hector best vs prior systems", Hector_experiments.Fig5.run);
    ("--table5", "Table 5: compaction & fusion speedups", Hector_experiments.Table5.run);
    ("--table6", "Table 6: unoptimized Hector vs best SOTA", Hector_experiments.Table6.run);
    ("--fig6", "Figure 6: RGAT breakdown under U/C/F/C+F", Hector_experiments.Fig6.run);
    ("--ablation", "Ablation: schedules, traversal strategy, devices, autotune",
      Hector_experiments.Ablation.run);
    ("--minibatch", "Minibatch step breakdown (extension of paper section 6)",
      Hector_experiments.Minibatch_exp.run);
  ]

(* --- shared fixtures ------------------------------------------------ *)

let bench_graph ?(nodes = 400) ?(edges = 1600) name seed =
  Hector_graph.Generator.generate
    {
      Hector_graph.Generator.name;
      num_ntypes = 3;
      num_etypes = 8;
      num_nodes = nodes;
      num_edges = edges;
      compaction_target = 0.4;
      scale = 1.0;
      seed;
    }

let micro_graph ?(seed = 11) () = bench_graph ~nodes:300 ~edges:1000 "micro" seed

let compile ?obs ?(training = false) ?(compact = false) ?(fusion = false) model =
  Compiler.compile ?obs
    ~options:(Compiler.options_of_flags ~training ~compact ~fusion ())
    (Models.by_name model ~in_dim:32 ~out_dim:16 ())

let labels_of graph = Array.init graph.G.num_nodes (fun i -> i mod 16)

let serve_config =
  {
    Serve.default_config with
    Serve.fanout = 6;
    hops = 2;
    max_batch = Some 8;
    max_wait_ms = 5.0;
    queue_capacity = Some 128;
  }

let requests ~n graph =
  Workload.generate
    ~spec:{ Workload.seed = 42; rate_rps = 1500.0; requests = n; seeds_per_request = 4 }
    ~num_nodes:graph.G.num_nodes ()

let ms_per_request (s : Serve.load_stats) =
  if s.Serve.throughput_rps > 0.0 then 1000.0 /. s.Serve.throughput_rps else 0.0

let comms ?faults () = Comms.create ~latency_us:5.0 ~bandwidth_gbs:25.0 ?faults ()

let dist_config ?(comms = comms ()) parts =
  { Replica.Config.default with Replica.Config.parts = Some parts; comms = Some comms }

let sim v = ("sim_ms", Gate.Time v)
let ratio v = ("ratio", Gate.Time v)
let zero field v = (field, Gate.Invariant { value = v; expected = 0.0 })

(* --- micro: Bechamel wall clock of the real implementations ----------

   One case per table/figure, measuring the real execution of that
   experiment's core computation on a small fixed input, plus one per host
   GEMM kernel; session cases also report the simulated time and launches
   of one steady-state run. *)

type micro_case = { cname : string; fn : unit -> unit; csession : Session.t option }

let micro_cases () =
  let graph = micro_graph () in
  let session ?training ~compact ~fusion model =
    Session.create
      ~config:{ Session.Config.default with seed = 3 }
      ~graph (compile ?training ~compact ~fusion model)
  in
  let forward_case cname ~compact ~fusion model =
    let s = session ~compact ~fusion model in
    { cname; fn = (fun () -> ignore (Session.forward s)); csession = Some s }
  in
  let labels = labels_of graph in
  let train_case cname model =
    let s = session ~training:true ~compact:false ~fusion:false model in
    { cname; fn = (fun () -> ignore (Session.train_step s ~labels ())); csession = Some s }
  in
  let plain cname fn = { cname; fn; csession = None } in
  (* The four GEMM kernels at AM's edgewise shape: 108 relations of 83
     rows each (8,964 edges over 2,993 nodes), 64 -> 16 features. *)
  let rels = 108 and per = 83 and nodes = 2993 and k = 64 and n = 16 in
  let rng = Hector_tensor.Rng.create 19 in
  let x = Tensor.randn rng [| nodes; k |] and w = Tensor.randn rng [| rels; k; n |] in
  let xe = Tensor.randn rng [| rels * per; k |] and dy = Tensor.randn rng [| rels * per; n |] in
  let y = Tensor.zeros [| rels * per; n |] and dx = Tensor.zeros [| nodes; k |] in
  let dw = Tensor.zeros [| rels; k; n |] in
  let idx = Array.init rels (fun _ -> Array.init per (fun _ -> Hector_tensor.Rng.int rng nodes)) in
  let per_relation f () =
    for r = 0 to rels - 1 do
      f r (Tensor.slice0 w r) (Tensor.sub_rows y (r * per) per) (Tensor.sub_rows dy (r * per) per)
    done
  in
  [
    plain "tensor/gemm_gather"
      (per_relation (fun r w y _ -> Tensor.matmul_gather_into x ~idx:idx.(r) w y));
    plain "tensor/gemm_gather_t"
      (per_relation (fun r _ _ dy ->
           Tensor.matmul_gather_t_into ~beta:1.0 x ~idx:idx.(r) dy (Tensor.slice0 dw r)));
    plain "tensor/gemm_scatter"
      (per_relation (fun r w _ dy ->
           Tensor.matmul_scatter_add_into ~trans_b:true dy w ~idx:idx.(r) dx));
    plain "tensor/gemm_node"
      (per_relation (fun r w y _ -> Tensor.matmul_into (Tensor.sub_rows xe (r * per) per) w y));
    plain "table1/compact_map" (fun () -> ignore (Hector_graph.Compact_map.build graph));
    forward_case "fig1/hgt_forward" ~compact:false ~fusion:false "hgt";
    plain "table4/generator" (fun () -> ignore (micro_graph ~seed:1 ()));
    forward_case "fig5/rgcn_forward" ~compact:false ~fusion:false "rgcn";
    forward_case "fig5/rgat_forward" ~compact:false ~fusion:false "rgat";
    train_case "fig5/rgcn_train" "rgcn";
    forward_case "table5/rgat_compact" ~compact:true ~fusion:false "rgat";
    forward_case "table5/rgat_fused" ~compact:false ~fusion:true "rgat";
    plain "table6/compile_rgat" (fun () -> ignore (compile ~compact:true ~fusion:true "rgat"));
    forward_case "fig6/rgat_compact_fused" ~compact:true ~fusion:true "rgat";
  ]

(* Bechamel OLS estimate of ns/run. *)
let bechamel_ns name fn =
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let measured =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ]
      (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ Test.make ~name (Staged.stage fn) ])
  in
  let analyzed =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock measured
  in
  Hashtbl.fold
    (fun _ result acc ->
      match (acc, Analyze.OLS.estimates result) with
      | None, Some [ est ] -> Some est
      | acc, _ -> acc)
    analyzed None

(* The "_meta" snapshot: the two flagship cases re-run with tracing and
   observability on fresh sessions (the measured sessions stay obs-free so
   the wall-clock numbers are undisturbed). *)
let meta_snapshots () =
  let snapshot name ~training ~compact model =
    let graph = micro_graph () in
    let obs = Hector_obs.create () in
    let config =
      { Session.Config.default with seed = 3; trace = true; observability = Some obs }
    in
    let s = Session.create ~config ~graph (compile ~obs ~training ~compact model) in
    (if training then ignore (Session.train_step s ~labels:(labels_of graph) ())
     else ignore (Session.forward s));
    (name, Session.metrics_json s, Session.chrome_trace s)
  in
  [
    snapshot "fig5/rgcn_train" ~training:true ~compact:false "rgcn";
    snapshot "table5/rgat_compact" ~training:false ~compact:true "rgat";
  ]

let micro () =
  let entry { cname; fn; csession } =
    let ns = bechamel_ns cname fn in
    (* one instrumented steady-state run (Bechamel already warmed the
       sessions, so allocation counts are per step, not first-run setup) *)
    let a0 = Tensor.allocation_count () and c0 = Tensor.copied_bytes () in
    Option.iter Session.reset_clock csession;
    fn ();
    let allocs = Tensor.allocation_count () - a0 and copied = Tensor.copied_bytes () - c0 in
    let session f = Option.to_list (Option.map f csession) in
    ( cname,
      Option.to_list (Option.map (fun ns -> ("ns", Gate.Time ns)) ns)
      @ session (fun s -> sim (Engine.elapsed_ms (Session.engine s)))
      @ [ ("allocs", Gate.Count allocs); ("copied_bytes", Gate.Count copied) ]
      @ session (fun s ->
            ( "launches",
              Gate.Count (Hector_gpu.Stats.total (Engine.stats (Session.engine s))).launches )) )
  in
  let entries = List.map entry (micro_cases ()) in
  let meta = meta_snapshots () in
  (* the matching timeline: simulated kernels (with per-launch provenance
     args) merged with compiler/runtime wall-clock spans *)
  (match meta with
  | (_, _, trace) :: _ -> Hector_runtime.Json_lite.write_atomic "BENCH_trace.json" trace
  | [] -> ());
  ( entries,
    "{"
    ^ String.concat ","
        (List.map
           (fun (name, metrics, _) -> Printf.sprintf "\"%s\": %s" (Engine.json_escape name) metrics)
           meta)
    ^ "}" )

(* --- serve: one deterministic open-loop serving run ------------------

   Batched RGCN inference over a synthetic parent graph under a Poisson
   arrival trace, entirely on the simulated clock. *)

let serve () =
  let graph = bench_graph "serve_bench" 17 in
  let server = Serve.create ~config:serve_config ~graph (Models.rgcn ~in_dim:32 ~out_dim:16 ()) in
  ignore (Serve.serve server (requests ~n:96 graph));
  let s = Serve.load_stats server in
  ( [
      ("serve/p50", [ sim s.Serve.p50_ms ]);
      ("serve/p95", [ sim s.Serve.p95_ms ]);
      ("serve/p99", [ sim s.Serve.p99_ms ]);
      ("serve/ms_per_request", [ sim (ms_per_request s) ]);
      ("serve/launches_per_request", [ ratio s.Serve.launches_per_request ]);
      ("serve/total", [ ("launches", Gate.Count (Serve.launches server)) ]);
    ],
    Serve.metrics_json server )

(* --- tune: the two-stage autotuner on every model-zoo entry ----------

   The tuned configuration must match or beat EVERY fixed U/C/F/C+F
   configuration; a slower one is a search or estimator bug. *)

let tune () =
  let graph = micro_graph () in
  let per_model =
    List.map
      (fun model ->
        let r = Autotune.search ~graph (Models.by_name model ~in_dim:32 ~out_dim:16 ()) in
        let measured (tag, compact, fusion) =
          let id = Compiler.options_id (Compiler.options_of_flags ~compact ~fusion ()) in
          (* fixed layouts are always among the measured candidates *)
          let c =
            List.find
              (fun (c : Autotune.candidate) ->
                String.equal (Compiler.options_id c.Autotune.options) id)
              r.Autotune.all
          in
          (tag, c.Autotune.time_ms)
        in
        let fixed =
          List.map measured
            [ ("U", false, false); ("C", true, false); ("F", false, true); ("CF", true, true) ]
        in
        (model, r.Autotune.best, fixed))
      [ "rgcn"; "rgat"; "hgt" ]
  in
  ( List.concat_map
      (fun (model, (best : Autotune.candidate), fixed) ->
        let tuned = best.Autotune.time_ms in
        let faster = List.filter (fun (_, t) -> tuned > t +. 1e-9) fixed in
        ((Printf.sprintf "tune/%s_tuned" model, [ sim tuned ])
        :: List.map (fun (tag, t) -> (Printf.sprintf "tune/%s_%s" model tag, [ sim t ])) fixed)
        @ [
            ( Printf.sprintf "tune/%s_fixed_faster" model,
              [ zero "configs" (float_of_int (List.length faster)) ] );
          ])
      per_model,
    "{"
    ^ String.concat ","
        (List.map
           (fun (model, (best : Autotune.candidate), _) ->
             Printf.sprintf
               "\"%s\": {\"best\": \"%s\", \"estimated_ms\": %.6f, \"measured_ms\": %.6f}" model
               (Engine.json_escape (Compiler.options_id best.Autotune.options))
               best.Autotune.estimated_ms best.Autotune.time_ms)
           per_model)
    ^ "}" )

(* --- dist: data-parallel RGCN training at 1, 2 and 4 partitions ------

   Headline numbers use the default overlapped schedule; a blocking BSP
   run of the same cluster quantifies what overlap hides.  The comm/busy
   ratio catches partitioner or interconnect-model regressions as extra
   exposed communication. *)

let dist () =
  let graph = bench_graph "dist_bench" 29 in
  let features = Tensor.randn (Hector_tensor.Rng.create 23) [| graph.G.num_nodes; 32 |] in
  let labels = labels_of graph in
  let compiled = compile ~training:true "rgcn" in
  let shared_comms = comms () in
  let epochs = 4 in
  let measure ~overlap parts =
    let config = { (dist_config ~comms:shared_comms parts) with Replica.Config.overlap } in
    let cluster = Replica.create ~config ~features ~graph [ compiled ] in
    ignore (Replica.train_step cluster ~labels ());
    Replica.reset_clocks cluster;
    for _ = 1 to epochs do
      ignore (Replica.train_step cluster ~labels ())
    done;
    let busy = Replica.busy_ms cluster in
    ( Replica.elapsed_ms cluster /. float_of_int epochs,
      Replica.launches cluster / epochs,
      (if busy > 0.0 then Replica.comm_ms cluster /. busy else 0.0),
      cluster )
  in
  let runs =
    List.map
      (fun parts ->
        let overlapped = measure ~overlap:true parts in
        (parts, overlapped, measure ~overlap:false parts))
      [ 1; 2; 4 ]
  in
  let name parts what = Printf.sprintf "dist/p%d_%s" parts what in
  ( List.concat_map
      (fun (parts, (ms, launches, comm, _), (bsp_ms, _, bsp_comm, _)) ->
        (name parts "ms_epoch", [ sim ms; ("launches", Gate.Count launches) ])
        ::
        (if parts > 1 then
           [
             (name parts "comm_ratio", [ ratio comm ]);
             (name parts "ms_epoch_bsp", [ sim bsp_ms ]);
             (name parts "comm_ratio_bsp", [ ratio bsp_comm ]);
           ]
         else []))
      runs,
    match List.rev runs with
    | (_, (_, _, _, cluster), _) :: _ -> Replica.metrics_json cluster
    | [] -> "{}" )

(* --- stream: the serving trace interleaved with graph deltas ---------

   Churn-balanced delta batches applied at micro-batch boundaries over a
   Mutable_graph with 200% capacity slack, so the whole trace stays
   in-slack — the regime the subsystem is designed to keep free: every
   delta is accepted and none re-plans or re-allocates. *)

let stream () =
  let graph = bench_graph "stream_bench" 17 in
  let in_dim = 32 in
  let features = Tensor.randn (Hector_tensor.Rng.create 5) [| graph.G.num_nodes; in_dim |] in
  let mg = Mg.create ~name:"stream_bench" ~slack:2.0 ~graph ~features () in
  let server = Ss.create ~config:serve_config ~mg (Models.rgcn ~in_dim ~out_dim:16 ()) in
  let requests = requests ~n:96 graph in
  let num_deltas = 12 and n = Array.length requests in
  let rejected = ref 0 in
  (* num_deltas + 1 serving segments with one delta batch at each interior
     boundary, generated against the *current* live view so every op is
     feasible by construction *)
  for k = 0 to num_deltas do
    let lo = k * n / (num_deltas + 1) and hi = (k + 1) * n / (num_deltas + 1) in
    ignore (Ss.serve server (Array.sub requests lo (hi - lo)));
    if k < num_deltas then begin
      (* inserts and removals at matched rates, so live counts hover around
         the epoch-0 sizes *)
      let mix =
        { Delta.add_node = 0.06; remove_node = 0.06; add_edge = 0.22; remove_edge = 0.22;
          set_feat = 0.44 }
      in
      let delta = Delta.generate ~mix ~view:(Mg.view mg) ~seed:(1000 + k) ~ops:25 () in
      match Ss.apply server delta with
      | Ok _ -> ()
      | Error msg ->
          Printf.printf "  stream delta %d rejected: %s\n" k msg;
          incr rejected
    end
  done;
  let ops = (Mg.counters mg).Mg.ops in
  let s = Serve.load_stats (Ss.replica server) in
  ( [
      ("stream/p50", [ sim s.Serve.p50_ms ]);
      ("stream/p99", [ sim s.Serve.p99_ms ]);
      ("stream/ms_per_request", [ sim (ms_per_request s) ]);
      ( "stream/update_ms_per_kop",
        [ sim (if ops > 0 then Ss.update_ms server *. 1000.0 /. float_of_int ops else 0.0) ] );
      (* after warmup the plan cache holds exactly one compile *)
      ( "stream/excess_recompiles",
        [ zero "recompiles" (float_of_int (Ss.recompiles server - 1)) ] );
      ("stream/rejected_deltas", [ zero "deltas" (float_of_int !rejected) ]);
    ],
    Ss.metrics_json server )

(* --- fault: three deterministic fault drills -------------------------

   1. crash recovery: 4-replica data-parallel RGCN training with a crash
      at step 3; survivors detect the dead peer, reload the latest
      checkpoint, re-partition, and must rejoin the uninterrupted loss
      trajectory to 1e-6.
   2. message faults: training under a 5% seeded drop rate (retries per
      1k launches), and a rate-0 plan, which must cost nothing.
   3. serving degradation: every micro-batch fails; served + shed +
      rejected must still account for every request. *)

let fault () =
  let graph = bench_graph "fault_bench" 29 in
  let features = Tensor.randn (Hector_tensor.Rng.create 23) [| graph.G.num_nodes; 32 |] in
  let labels = labels_of graph in
  let compiled = compile ~training:true "rgcn" in
  (* 1. crash recovery *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hector-bench-fault-%d" (Unix.getpid ()))
  in
  let train ?faults ?dir ?every () =
    Failover.train ~config:(dist_config 4) ?faults ?dir ?every ~lr:0.05 ~features ~graph
      ~labels ~steps:5 compiled
  in
  let uninterrupted = train () in
  let recovered = train ~faults:(Fault.create ~crash_at:(3, 1) ()) ~dir ~every:1 () in
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let off_trajectory =
    Array.fold_left ( + ) 0
      (Array.map2
         (fun a b -> if abs_float (a -. b) > 1e-6 then 1 else 0)
         uninterrupted.Failover.losses recovered.Failover.losses)
  in
  (* 2. message faults and the faults-off overhead *)
  let train_cluster config =
    let cluster = Replica.create ~config ~features ~graph [ compiled ] in
    for _ = 1 to 3 do
      ignore (Replica.train_step cluster ~labels ())
    done;
    cluster
  in
  let drop_plan = Fault.create ~seed:7 ~rate:0.05 () in
  let dropped = train_cluster (dist_config ~comms:(comms ~faults:drop_plan ()) 4) in
  let plain = train_cluster (dist_config 4) in
  let zeroed =
    train_cluster (dist_config ~comms:(comms ~faults:(Fault.create ~rate:0.0 ()) ()) 4)
  in
  (* 3. serving degradation *)
  let server =
    Serve.create
      ~config:{ serve_config with Serve.faults = Some (Fault.create ~seed:11 ~rate:1.0 ()) }
      ~graph (Models.rgcn ~in_dim:32 ~out_dim:16 ())
  in
  let seen = 48 in
  ignore (Serve.serve server (requests ~n:seen graph));
  ( [
      ("fault/recovery_ms", [ sim recovered.Failover.recovery_ms ]);
      ("fault/off_trajectory", [ zero "steps" (float_of_int off_trajectory) ]);
      ( "fault/retries_per_1k",
        [
          ratio
            (1000.0 *. float_of_int (Fault.retries drop_plan)
            /. float_of_int (Replica.launches dropped));
        ] );
      ( "fault/off_overhead",
        [
          zero "sim_ms" (Replica.elapsed_ms zeroed -. Replica.elapsed_ms plain);
          zero "launch_delta" (float_of_int (Replica.launches zeroed - Replica.launches plain));
        ] );
      ( "fault/shed_on_fault",
        [ ratio (float_of_int (Serve.fault_shed server) /. float_of_int seen) ] );
      ( "fault/unaccounted",
        [
          zero "requests"
            (float_of_int (Serve.served server + Serve.shed server + Serve.rejected server - seen));
        ] );
    ],
    Replica.metrics_json recovered.Failover.cluster )

(* --- the suite registry --------------------------------------------- *)

type suite = { name : string; doc : string; run : unit -> Gate.entry list * string }

let suites =
  [
    { name = "micro"; doc = "Bechamel wall clock per table/figure (+ trace)"; run = micro };
    { name = "serve"; doc = "open-loop batched RGCN serving"; run = serve };
    { name = "dist"; doc = "data-parallel RGCN training, 1/2/4 parts, overlap/BSP"; run = dist };
    { name = "tune"; doc = "two-stage autotuner vs every fixed U/C/F/C+F layout"; run = tune };
    { name = "stream"; doc = "serving interleaved with in-slack graph deltas"; run = stream };
    { name = "fault"; doc = "crash recovery, message drops, failing serve batches"; run = fault };
  ]

let file s = Printf.sprintf "BENCH_%s.json" s.name

(* Every baseline is read before any suite runs: a bad one fails fast, and
   with [--check .] the gate sees the committed numbers, not the files this
   run rewrites. *)
let run_suites ~check selected =
  let baselines =
    List.map
      (fun s ->
        match check with
        | None -> None
        | Some dir -> (
            match Gate.read_baseline (Filename.concat dir (file s)) with
            | Ok b -> Some b
            | Error msg ->
                Printf.eprintf "bench/main.exe: bad baseline: %s\n" msg;
                exit 1))
      selected
  in
  let failures =
    List.concat
      (List.map2
         (fun s baseline ->
           Printf.printf "== %s: %s\n" s.name s.doc;
           let entries, meta = s.run () in
           Hector_runtime.Json_lite.write_atomic (file s) (Gate.to_json entries ~meta);
           let failures = Gate.check ?baseline entries in
           Printf.printf "Wrote %s (%d entries + _meta)\n\n" (file s) (List.length entries);
           failures)
         selected baselines)
  in
  if failures <> [] then begin
    Printf.eprintf "bench/main.exe: %d failure(s):\n" (List.length failures);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1
  end

(* --- CLI ---------------------------------------------------------- *)

let usage () =
  print_string
    "Usage: bench/main.exe [FLAGS]\n\n\
     Experiment selection (default: all tables and figures):\n";
  List.iter (fun (flag, title, _) -> Printf.printf "  %-12s %s\n" flag title) experiments;
  print_string
    "\nRegression suites (instead of the experiments):\n\
    \  --suite LIST     run the comma-separated suites (or \"all\"), writing\n\
    \                   BENCH_<suite>.json (entries plus a \"_meta\" snapshot)\n\
    \                   to the current directory; exit 1 if an invariant breaks\n";
  List.iter (fun s -> Printf.printf "                     %-7s %s\n" s.name s.doc) suites;
  print_string
    "  --check DIR      also gate each suite against DIR/BENCH_<suite>.json,\n\
    \                   read before the run: times and ratios may grow at most\n\
    \                   15%, counts not at all, and a baseline metric missing\n\
    \                   from the run fails; exit 1 on any failure\n\
     \nOther flags:\n\
    \  --max-nodes N    cap physical replica size (default 2000)\n\
    \  --max-edges N    cap physical replica size (default 6000)\n\
    \  --help           show this message\n\n\
     Environment knobs (parsed by Hector_runtime.Knobs; see README):\n\
    \  HECTOR_DOMAINS   multicore backend size (1 = sequential)\n\
    \  HECTOR_ARENA     0 disables the plan-lifetime memory planner\n\
    \  HECTOR_FUSE_OPS  0 disables inter-op kernel fusion\n\
    \  HECTOR_OBS       1 enables observability for knob-driven sessions\n\
    \  HECTOR_SERVE_BATCH  serving micro-batch cap (default 8)\n\
    \  HECTOR_SERVE_QUEUE  serving admission-queue bound (default 64)\n\
    \  HECTOR_DIST_PARTS   default partition count for distributed runs\n\
    \  HECTOR_DIST_LATENCY_US / HECTOR_DIST_BW_GBS  interconnect cost model\n\
    \  HECTOR_DIST_CHANNELS  concurrent transfer channels per engine (default 2)\n\
    \  HECTOR_DIST_BUCKET_KB gradient all-reduce bucket size in KiB (default 64)\n\
    \  HECTOR_DIST_PIPELINE  micro-batch pipeline depth (default 1 = off)\n\
    \  HECTOR_TUNE_DB   persistent plan-tuning database path (JSON)\n\
    \  HECTOR_STREAM_SLACK   capacity headroom per type for mutable graphs\n\
    \  HECTOR_STREAM_COMPACT dead-slot fraction that triggers compaction\n\
    \  HECTOR_CKPT_DIR  default checkpoint directory (save/load/latest)\n\
    \  HECTOR_CKPT_KEEP retain only the N newest checkpoints on save\n\
    \  HECTOR_FAULT_SEED / HECTOR_FAULT_RATE  deterministic fault plan for\n\
    \                   comms drops/delays and serve batch failures\n"

let cli_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench/main.exe: %s\n\n" msg;
      usage ();
      exit 1)
    fmt

type cli = {
  mutable suites : suite list;
  mutable check : string option;
  mutable max_nodes : int;
  mutable max_edges : int;
  mutable selected : string list;  (* experiment flags, reversed *)
}

let parse_cli argv =
  let cli = { suites = []; check = None; max_nodes = 2000; max_edges = 6000; selected = [] } in
  let value flag = function
    | v :: rest -> (v, rest)
    | [] -> cli_error "%s expects an argument" flag
  in
  let int_value flag rest =
    let v, rest = value flag rest in
    match int_of_string_opt (String.trim v) with
    | Some n when n > 0 -> (n, rest)
    | _ -> cli_error "%s expects a positive integer, got %S" flag v
  in
  let suite_of name =
    match List.find_opt (fun s -> String.equal s.name name) suites with
    | Some s -> s
    | None -> cli_error "unknown suite %S" name
  in
  let rec go = function
    | [] -> cli
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | "--suite" :: rest ->
        let v, rest = value "--suite" rest in
        cli.suites <-
          (if String.equal v "all" then suites else List.map suite_of (String.split_on_char ',' v));
        go rest
    | "--check" :: rest ->
        let dir, rest = value "--check" rest in
        cli.check <- Some dir;
        go rest
    | "--max-nodes" :: rest ->
        let n, rest = int_value "--max-nodes" rest in
        cli.max_nodes <- n;
        go rest
    | "--max-edges" :: rest ->
        let n, rest = int_value "--max-edges" rest in
        cli.max_edges <- n;
        go rest
    | flag :: rest when List.exists (fun (f, _, _) -> String.equal f flag) experiments ->
        cli.selected <- flag :: cli.selected;
        go rest
    | arg :: _ ->
        if String.length arg >= 2 && String.equal (String.sub arg 0 2) "--" then
          cli_error "unknown flag %S" arg
        else cli_error "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list argv))

let () =
  let cli = parse_cli Sys.argv in
  if cli.check <> None && cli.suites = [] then cli_error "--check needs --suite";
  if cli.suites <> [] && cli.selected <> [] then
    cli_error "--suite and the experiment flags are mutually exclusive";
  if cli.suites <> [] then run_suites ~check:cli.check cli.suites
  else begin
    let t = H.create ~max_nodes:cli.max_nodes ~max_edges:cli.max_edges () in
    let selected =
      List.filter (fun (flag, _, _) -> List.mem flag cli.selected) experiments
    in
    let to_run = if selected = [] then experiments else selected in
    Printf.printf
      "Hector benchmark harness — simulated RTX 3090, paper-scale costs\n\
       (physical replicas: <=%d nodes, <=%d edges per dataset; see DESIGN.md)\n\n"
      cli.max_nodes cli.max_edges;
    List.iter
      (fun (_, title, run) ->
        Printf.printf "==== %s ====\n\n" title;
        run t;
        Printf.printf "\n")
      to_run
  end
