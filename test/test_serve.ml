(* Tests for the serving subsystem: batched ≡ one-at-a-time equivalence,
   launch amortization, steady-state zero-compile/zero-alloc, admission
   control and metrics/workload determinism. *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Workload = Hector_serve.Workload
module Plan_cache = Hector_serve.Plan_cache
module Serve = Hector_serve.Serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

let parent =
  lazy
    (Gen.generate
       {
         Gen.name = "serve_parent";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 200;
         num_edges = 800;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 33;
       })

let rgcn () = Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:4 ()

(* exact-mode config: full in-neighborhoods, so batching cannot change any
   request's receptive field *)
let exact_config ?(max_batch = 6) graph =
  {
    Serve.default_config with
    Serve.fanout = Serve.exact_fanout graph;
    hops = 2;
    max_batch = Some max_batch;
    max_wait_ms = 5.0;
    queue_capacity = Some 64;
  }

let trace ?(requests = 18) ?(rate_rps = 2000.0) graph =
  Workload.generate
    ~spec:{ Workload.default_spec with Workload.requests; rate_rps; seeds_per_request = 3 }
    ~num_nodes:graph.G.num_nodes ()

let alloc_count server = Memory.alloc_count (Engine.memory (Serve.engine server))

let outputs_of responses =
  Array.map
    (fun (r : Serve.response) ->
      match r.Serve.output with
      | Some o -> o
      | None -> Alcotest.fail "request unexpectedly shed")
    responses

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri
    (fun i ai ->
      Alcotest.(check (pair int int))
        "output shape" (T.rows ai, T.cols ai) (T.rows b.(i), T.cols b.(i));
      for r = 0 to T.rows ai - 1 do
        for c = 0 to T.cols ai - 1 do
          d := Float.max !d (abs_float (T.get2 ai r c -. T.get2 b.(i) r c))
        done
      done)
    a;
  !d

(* batched serving must return, per request, what a batch-size-1 replica
   returns — at 1, 2 and 4 domains *)
let test_batched_equivalence () =
  let graph = Lazy.force parent in
  let requests = trace graph in
  let serve_with ~max_batch =
    let server = Serve.create ~config:(exact_config ~max_batch graph) ~graph (rgcn ()) in
    outputs_of (Serve.serve server requests)
  in
  let reference = with_domains 1 (fun () -> serve_with ~max_batch:1) in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let batched = serve_with ~max_batch:6 in
          let d = max_abs_diff batched reference in
          check_bool
            (Printf.sprintf "batched ≡ single (%d domains, diff %.2e)" domains d)
            true (d <= 1e-6)))
    [ 1; 2; 4 ]

let test_batching_amortizes_launches () =
  let graph = Lazy.force parent in
  let requests = trace graph in
  let launches_per_request ~max_batch =
    let server = Serve.create ~config:(exact_config ~max_batch graph) ~graph (rgcn ()) in
    let responses = Serve.serve server requests in
    Array.iter
      (fun (r : Serve.response) -> check_bool "served" true (r.Serve.output <> None))
      responses;
    float_of_int (Serve.launches server) /. float_of_int (Serve.served server)
  in
  let batched = launches_per_request ~max_batch:6 in
  let single = launches_per_request ~max_batch:1 in
  check_bool
    (Printf.sprintf "fewer launches per request batched (%.2f < %.2f)" batched single)
    true
    (batched < single)

let test_steady_state_no_compile_no_alloc () =
  let graph = Lazy.force parent in
  let server = Serve.create ~config:(exact_config graph) ~graph (rgcn ()) in
  check_int "one compile at warmup" 1 (Plan_cache.misses (Serve.plan_cache server));
  check_int "warmup allocations settled" (Serve.warm_alloc_count server) (alloc_count server);
  ignore (Serve.serve server (trace graph));
  check_int "serving allocates nothing" (Serve.warm_alloc_count server) (alloc_count server);
  ignore (Serve.serve server (trace ~requests:9 graph));
  check_int "still nothing on later episodes" (Serve.warm_alloc_count server)
    (alloc_count server);
  check_int "still exactly one compile" 1 (Plan_cache.misses (Serve.plan_cache server));
  check_bool "cache hit on re-lookup" true (Plan_cache.hits (Serve.plan_cache server) >= 0)

let bits t =
  let data, off = T.storage t in
  Array.init (T.numel t) (fun i -> Int64.bits_of_float data.(off + i))

(* Warmup runs no forward.  The forward it used to run is replayed here,
   through a twin replica's own engine and slab right after [create], as
   warmup did before resetting the clock.  With the planner on (the
   default) every plan buffer already sits in the primed slab, so that
   forward allocates nothing and leaves no state a later block reads: the
   twin matches a plain replica in peak bytes, allocation counts and
   served output bits.  With the planner off ([HECTOR_ARENA=0]) the slab
   stays empty, [warm_plan] is a no-op and every [run_plan] allocates its
   buffers up front and frees the temporaries, so the old forward only
   charged one extra round of allocations at warmup; serving allocates per
   block either way. *)
let test_warmup_leaves_no_trace () =
  let module Exec = Hector_runtime.Exec in
  let module Env = Hector_runtime.Env in
  let module Ir = Hector_core.Inter_ir in
  let module Mat = Hector_core.Materialization in
  let module Compiler = Hector_core.Compiler in
  let graph = Lazy.force parent in
  let requests = trace graph in
  let peak server = Memory.peak_bytes (Engine.memory (Serve.engine server)) in
  List.iter
    (fun (model, options) ->
      let program = Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:4 () in
      let config = { (exact_config graph) with Serve.model; options = Some options } in
      let label =
        Printf.sprintf "%s %s" model (if options.Compiler.linear_fusion then "C+F" else "U")
      in
      let plain = Serve.create ~config ~graph program in
      let twin = Serve.create ~config ~graph program in
      let compiled =
        Plan_cache.get (Serve.plan_cache twin) ~model ~graph:graph.G.name
          ~options:{ options with Compiler.training = false } program
      in
      let env = Env.create () in
      List.iter (fun (name, w) -> Env.add_weight env ~name w) (Serve.model_weights twin);
      List.iter
        (function
          | Ir.Node_input { name; dim } ->
              let x = T.randn (Hector_tensor.Rng.create 5) [| graph.G.num_nodes; dim |] in
              Env.add env ~name { Env.tensor = x; space = Mat.Rows_nodes; dim; alloc = None }
          | Ir.Edge_input { name; dim } ->
              Env.add env ~name
                {
                  Env.tensor = Hector_runtime.Session.rgcn_norm graph;
                  space = Mat.Rows_edges;
                  dim;
                  alloc = None;
                }
          | _ -> ())
        program.Ir.decls;
      let exec =
        Exec.create ~engine:(Serve.engine twin) ~ctx:(Hector_runtime.Graph_ctx.create graph) ~env
          ~slab:(Serve.slab twin) ()
      in
      Exec.run_plan exec compiled.Compiler.forward;
      Engine.reset_clock (Serve.engine twin);
      check_int (label ^ ": warm alloc counts") (Serve.warm_alloc_count twin)
        (Serve.warm_alloc_count plain);
      check_int (label ^ ": the forward allocated nothing") (Serve.warm_alloc_count plain)
        (alloc_count twin);
      check_bool (label ^ ": same peak bytes") true (peak plain = peak twin);
      let a = outputs_of (Serve.serve plain requests) in
      let b = outputs_of (Serve.serve twin requests) in
      Array.iteri
        (fun i ai ->
          check_bool (Printf.sprintf "%s: request %d output bits" label i) true
            (T.shape ai = T.shape b.(i) && bits ai = bits b.(i)))
        a;
      check_int (label ^ ": served alloc counts") (alloc_count plain) (alloc_count twin);
      check_bool (label ^ ": served peak bytes") true (peak plain = peak twin))
    [
      ("rgcn", Compiler.default_options);
      ("rgcn", Compiler.options_of_flags ~compact:true ~fusion:true ());
      ("rgat", Compiler.default_options);
      ("rgat", Compiler.options_of_flags ~compact:true ~fusion:true ());
    ]

(* a features matrix of the wrong shape is refused by name, before any
   session (and so any engine allocation) exists *)
let test_create_rejects_bad_features () =
  let graph = Lazy.force parent in
  let rejects label features =
    match Serve.create ~config:(exact_config graph) ~features ~graph (rgcn ()) with
    | _ -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument msg ->
        check_bool (label ^ " names features") true
          (String.length msg >= 22 && String.sub msg 0 22 = "Serve.create: features")
  in
  rejects "too few rows" (T.zeros [| graph.G.num_nodes - 1; 8 |]);
  rejects "wrong width" (T.zeros [| graph.G.num_nodes; 7 |]);
  rejects "not a matrix" (T.zeros [| graph.G.num_nodes * 8 |]);
  (* the right shape is adopted as the parent features: with pinned
     weights, a replica given them serves what a seeded one serves after
     [update_graph] copies them in *)
  let features = T.randn (Hector_tensor.Rng.create 2) [| graph.G.num_nodes; 8 |] in
  let seeded = Serve.create ~config:(exact_config graph) ~graph (rgcn ()) in
  let config = { (exact_config graph) with Serve.weights = Serve.model_weights seeded } in
  let given = Serve.create ~config ~features:(T.copy features) ~graph (rgcn ()) in
  (match Serve.update_graph seeded ~graph ~features () with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_int "same warm allocations" (Serve.warm_alloc_count seeded) (Serve.warm_alloc_count given);
  let a = outputs_of (Serve.serve seeded (trace graph)) in
  let b = outputs_of (Serve.serve given (trace graph)) in
  Array.iteri (fun i ai -> check_bool "same output bits" true (bits ai = bits b.(i))) a

let test_admission_shedding () =
  let graph = Lazy.force parent in
  let config =
    { (exact_config ~max_batch:2 graph) with Serve.queue_capacity = Some 2; max_wait_ms = 50.0 }
  in
  let server = Serve.create ~config ~graph (rgcn ()) in
  (* arrivals far faster than the server can drain a 2-deep queue *)
  let requests = trace ~requests:40 ~rate_rps:100000.0 graph in
  let responses = Serve.serve server requests in
  check_bool "overload sheds" true (Serve.shed server > 0);
  check_int "served + shed = requests" (Array.length requests)
    (Serve.served server + Serve.shed server);
  let none, some =
    Array.fold_left
      (fun (n, s) (r : Serve.response) ->
        match r.Serve.output with None -> (n + 1, s) | Some _ -> (n, s + 1))
      (0, 0) responses
  in
  check_int "shed responses have no output" (Serve.shed server) none;
  check_int "served responses have output" (Serve.served server) some

let test_metrics_json () =
  let graph = Lazy.force parent in
  let server = Serve.create ~config:(exact_config graph) ~graph (rgcn ()) in
  let responses = Serve.serve server (trace graph) in
  let doc = Json_schema.envelope ~subsystem:"serve" (Serve.metrics_json server) in
  let latency = Json_schema.field doc "latency_ms" in
  List.iter (fun key -> ignore (Json_schema.num latency key)) [ "p50"; "p95"; "p99" ];
  List.iter
    (fun key -> ignore (Json_schema.num doc key))
    [ "throughput_rps"; "mean_batch"; "launches_per_request"; "sim_elapsed_ms" ];
  check_int "shed printed" (Serve.shed server) (Json_schema.int doc "shed");
  check_int "plan cache misses printed"
    (Plan_cache.misses (Serve.plan_cache server))
    (Json_schema.int (Json_schema.field doc "plan_cache") "misses");
  (match Json_schema.field doc "batch_hist" with
  | Hector_json.Obj sizes as hist ->
      check_int "batch_hist counts every batch" (Serve.batches server)
        (List.fold_left (fun acc (size, _) -> acc + Json_schema.int hist size) 0 sizes)
  | _ -> Alcotest.fail "batch_hist is not an object");
  (* fast open-loop arrivals + max_batch 6: batching must actually happen *)
  check_bool "batches formed" true (Serve.batches server < Array.length responses);
  Array.iter
    (fun (r : Serve.response) ->
      check_bool "latency covers queue+service" true
        (r.Serve.latency_ms
         >= r.Serve.queue_ms +. r.Serve.sample_ms +. r.Serve.transfer_ms
            +. r.Serve.compute_ms -. 1e-9);
      check_bool "positive compute" true (r.Serve.compute_ms > 0.0))
    responses

let test_workload_deterministic () =
  let spec = { Workload.default_spec with Workload.requests = 20; seed = 9 } in
  let a = Workload.generate ~spec ~num_nodes:100 () in
  let b = Workload.generate ~spec ~num_nodes:100 () in
  check_bool "same trace" true (a = b);
  let c = Workload.generate ~spec:{ spec with Workload.seed = 10 } ~num_nodes:100 () in
  check_bool "different seed, different arrivals" true
    (Array.exists
       (fun i -> a.(i).Workload.arrival_ms <> c.(i).Workload.arrival_ms)
       (Array.init 20 (fun i -> i)));
  Array.iteri
    (fun i (r : Workload.request) ->
      check_int "ids are positions" i r.Workload.id;
      if i > 0 then
        check_bool "arrivals increase" true (r.Workload.arrival_ms > a.(i - 1).Workload.arrival_ms);
      let sorted = Array.copy r.Workload.seeds in
      Array.sort compare sorted;
      Array.iteri
        (fun j v ->
          check_bool "seed in range" true (v >= 0 && v < 100);
          if j > 0 then check_bool "seeds distinct" true (v <> sorted.(j - 1)))
        sorted)
    a

let test_serve_knobs () =
  let graph = Lazy.force parent in
  Unix.putenv "HECTOR_SERVE_BATCH" "3";
  Unix.putenv "HECTOR_SERVE_QUEUE" "5";
  ignore (Hector_runtime.Knobs.refresh ());
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "HECTOR_SERVE_BATCH" "";
      Unix.putenv "HECTOR_SERVE_QUEUE" "";
      ignore (Hector_runtime.Knobs.refresh ()))
    (fun () ->
      let server =
        Serve.create
          ~config:{ (exact_config graph) with Serve.max_batch = None; queue_capacity = None }
          ~graph (rgcn ())
      in
      check_int "HECTOR_SERVE_BATCH" 3 (Serve.max_batch server);
      check_int "HECTOR_SERVE_QUEUE" 5 (Serve.queue_capacity server))

(* [g] four times over, node types kept grouped: copy [k] of node [v]
   (type range [s, s+c)) is [4s + k*c + (v - s)].  Copy 0's in-rows list
   the same sources in the same order as [g]'s, so a seed set mapped into
   copy 0 samples an isomorphic block. *)
let replicate4 (g : G.t) =
  let map k v =
    let s, c = G.nodes_of_type g g.G.node_type.(v) in
    (4 * s) + (k * c) + (v - s)
  in
  let node_type = Array.init (4 * g.G.num_nodes) (fun i -> g.G.node_type.(i / 4)) in
  let edges =
    Array.init (4 * g.G.num_edges) (fun i ->
        let e = i mod g.G.num_edges and k = i / g.G.num_edges in
        (map k g.G.src.(e), map k g.G.dst.(e), g.G.etype.(e)))
  in
  (G.create ~metagraph:g.G.metagraph ~node_type ~edges (), map 0)

(* Words allocated so far: the minor heap plus direct major allocations,
   so an array too large for the minor heap (one sized to the parent, say)
   still shows. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Per-batch host work is O(block): serving the same blocks out of a parent
   four times larger allocates the same words per batch. *)
let test_batch_words_independent_of_parent () =
  with_domains 1 (fun () ->
      let small =
        Gen.generate
          {
            Gen.name = "small";
            num_ntypes = 3;
            num_etypes = 6;
            num_nodes = 3000;
            num_edges = 9000;
            compaction_target = 0.5;
            scale = 1.0;
            seed = 8;
          }
      in
      let large, to_large = replicate4 small in
      let reqs = trace ~requests:48 ~rate_rps:4000.0 small in
      let words graph reqs =
        let config = { Serve.default_config with Serve.model = "rgat"; max_batch = Some 8 } in
        let server =
          Serve.create ~config ~graph (Hector_models.Model_defs.rgat ~in_dim:8 ~out_dim:4 ())
        in
        ignore (Serve.serve server reqs);
        let b0 = Serve.batches server and w0 = allocated_words () in
        ignore (Serve.serve server reqs);
        (allocated_words () -. w0) /. float_of_int (Serve.batches server - b0)
      in
      let ws = words small reqs in
      let wl =
        words large
          (Array.map
             (fun (r : Workload.request) ->
               { r with Workload.seeds = Array.map to_large r.Workload.seeds })
             reqs)
      in
      check_bool
        (Printf.sprintf "%.0f vs %.0f words per batch (parents of %d and %d nodes)" ws wl
           small.G.num_nodes large.G.num_nodes)
        true
        (Float.abs (wl -. ws) < 64.0))

let suite =
  [
    Alcotest.test_case "batched ≡ one-at-a-time (1/2/4 domains)" `Quick
      test_batched_equivalence;
    Alcotest.test_case "batching amortizes kernel launches" `Quick
      test_batching_amortizes_launches;
    Alcotest.test_case "steady state: zero compiles, zero allocs" `Quick
      test_steady_state_no_compile_no_alloc;
    Alcotest.test_case "warmup forward leaves no device trace" `Quick
      test_warmup_leaves_no_trace;
    Alcotest.test_case "create rejects mis-shaped features" `Quick
      test_create_rejects_bad_features;
    Alcotest.test_case "admission control sheds under overload" `Quick
      test_admission_shedding;
    Alcotest.test_case "metrics json" `Quick test_metrics_json;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "HECTOR_SERVE_* knobs" `Quick test_serve_knobs;
    Alcotest.test_case "per-batch words independent of the parent" `Quick
      test_batch_words_independent_of_parent;
  ]
