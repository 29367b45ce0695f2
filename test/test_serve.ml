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
  let cache = Serve.plan_cache server in
  check_int "still exactly one compile" 1 (Plan_cache.misses cache);
  (* serving never consults the cache: the replica holds the plan warmup
     compiled, the only one this cache has ever compiled, so a lookup of
     the replica's key hits it *)
  check_int "serving looks nothing up" 0 (Plan_cache.hits cache);
  let lookup () =
    Plan_cache.get cache ~model:"rgcn" ~graph:graph.G.name
      ~options:Hector_core.Compiler.default_options (rgcn ())
  in
  let served = lookup () in
  check_int "re-lookup hits" 1 (Plan_cache.hits cache);
  check_int "re-lookup compiles nothing" 1 (Plan_cache.misses cache);
  check_bool "the cache returns one plan object" true (lookup () == served)

let bits t =
  let data, off = T.storage t in
  Array.init (T.numel t) (fun i -> Int64.bits_of_float data.(off + i))

(* Warmup runs no forward.  The forward it used to run is replayed here,
   through a twin replica's own executor right after [create], as warmup
   did before resetting the clock.  Every plan buffer already sits in the
   warmed arenas, so that forward allocates nothing and leaves no state a
   later block reads: the twin matches a plain replica in peak bytes,
   allocation counts and served output bits. *)
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
      let exec = Serve.exec twin in
      List.iter
        (function
          | Ir.Node_input { name; dim } ->
              let x = T.randn (Hector_tensor.Rng.create 5) [| graph.G.num_nodes; dim |] in
              Env.add exec.Exec.env ~name { Env.tensor = x; space = Mat.Rows_nodes; dim; alloc = None }
          | Ir.Edge_input { name; dim } ->
              Env.add exec.Exec.env ~name
                {
                  Env.tensor = Hector_runtime.Session.rgcn_norm graph;
                  space = Mat.Rows_edges;
                  dim;
                  alloc = None;
                }
          | _ -> ())
        program.Ir.decls;
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

(* A replica projects each (weight, slice, node) row once: serving a trace
   a second time computes no row (every lookup hits), returns the same
   bits, and charges the device the same launches and simulated time as
   the cold pass. *)
let test_row_reuse_warm_pass () =
  let graph = Lazy.force parent in
  let requests = trace graph in
  List.iter
    (fun (model, (compact, fusion)) ->
      let label = Printf.sprintf "%s %b/%b" model compact fusion in
      let obs = Hector_obs.create () in
      let config =
        {
          (exact_config graph) with
          Serve.model;
          options = Some (Hector_core.Compiler.options_of_flags ~compact ~fusion ());
        }
      in
      let server =
        Serve.create ~config ~obs ~graph
          (Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:4 ())
      in
      let pass () =
        let hits = Hector_obs.counter obs "serve.row_hits"
        and misses = Hector_obs.counter obs "serve.row_misses" in
        Engine.reset_clock (Serve.engine server);
        let out = Array.map bits (outputs_of (Serve.serve server requests)) in
        ( out,
          Hector_obs.counter obs "serve.row_hits" - hits,
          Hector_obs.counter obs "serve.row_misses" - misses,
          Serve.launches server,
          Engine.elapsed_ms (Serve.engine server) )
      in
      let cold, _, cold_misses, cold_launches, cold_ms = pass () in
      let warm, warm_hits, warm_misses, warm_launches, warm_ms = pass () in
      check_bool (label ^ ": the cold pass projects rows") true (cold_misses > 0);
      check_int (label ^ ": the warm pass projects none") 0 warm_misses;
      check_bool (label ^ ": the warm pass reads the table") true (warm_hits > 0);
      check_bool (label ^ ": same bits") true (warm = cold);
      check_int (label ^ ": same launches") cold_launches warm_launches;
      check_bool (label ^ ": same simulated time") true (Float.equal cold_ms warm_ms))
    (List.concat_map
       (fun model -> [ (model, (false, false)); (model, (true, true)) ])
       [ "rgcn"; "rgat"; "hgt" ])

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

(* NaN passes a [< 0.0] guard; the constructors reject it by field name *)
let test_rejects_nan () =
  let graph = Lazy.force parent in
  let rejects prefix f =
    match f () with
    | _ -> Alcotest.failf "%s: NaN accepted" prefix
    | exception Invalid_argument msg ->
        check_bool (prefix ^ " named") true (String.starts_with ~prefix msg)
  in
  rejects "Workload.generate: rate_rps" (fun () ->
      Workload.generate
        ~spec:{ Workload.default_spec with Workload.rate_rps = Float.nan }
        ~num_nodes:graph.G.num_nodes ());
  rejects "Serve.create: max_wait_ms" (fun () ->
      Serve.create
        ~config:{ (exact_config graph) with Serve.max_wait_ms = Float.nan }
        ~graph (rgcn ()))

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
    responses;
  (* the hop bound and the hops a batch samples: RGAT reads one hop, the
     two-layer RGCN two *)
  List.iter
    (fun (model, program, sampled) ->
      let config = { (exact_config graph) with Serve.model } in
      let server = Serve.create ~config ~graph program in
      ignore (Serve.serve server (trace graph));
      let hops =
        Json_schema.field (Json_schema.envelope ~subsystem:"serve" (Serve.metrics_json server)) "hops"
      in
      check_int (model ^ ": hop bound") 2 (Json_schema.int hops "bound");
      check_int (model ^ ": hops sampled") sampled (Json_schema.int hops "sampled"))
    [
      ("rgat", Hector_models.Model_defs.rgat ~in_dim:8 ~out_dim:4 (), 1);
      ("rgcn2", Hector_models.Model_defs.rgcn_two_layer ~in_dim:8 (), 2);
    ]

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

(* --- sampled depth --------------------------------------------------- *)

module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Sampler = Hector_graph.Sampler
module Block = Hector_runtime.Block
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env

(* An edge GEMM, an aggregation, an edge GEMM over the aggregate at each
   edge's source, and a second aggregation: the seeds' outputs read two
   in-hops.  [src_write] adds a scatter into each edge's source, which no
   in-hop count covers. *)
let two_hop ?(src_write = false) () =
  let open Ir in
  let aggregate out msg =
    For_each
      ( Nodes,
        [
          Assign (Cur_node, out, Const 0.0);
          For_each (Incoming, [ Accumulate (Cur_node, out, Data (Cur_edge, msg)) ]);
        ] )
  in
  {
    name = (if src_write then "src_write" else "two_hop");
    decls =
      [
        Node_input { name = "h"; dim = 8 };
        Weight_mat { name = "W1"; slice = By_etype; rows = 8; cols = 8 };
        Weight_mat { name = "W2"; slice = By_etype; rows = 8; cols = 4 };
      ];
    body =
      [
        For_each
          (Edges, [ Assign (Cur_edge, "m1", Linear (Feature (Src, "h"), Weight ("W1", By_etype))) ]);
        aggregate "a1" "m1";
        For_each
          (Edges, [ Assign (Cur_edge, "m2", Linear (Data (Src, "a1"), Weight ("W2", By_etype))) ]);
        aggregate "out" "m2";
      ]
      @
      if src_write then [ For_each (Edges, [ Accumulate (Src, "out", Data (Cur_edge, "m2")) ]) ]
      else [];
    outputs = [ "out" ];
  }

let forward_depth ?(options = Compiler.default_options) program =
  Ir.receptive_depth (Compiler.compile ~options program).Compiler.forward.Hector_core.Plan.program

let layouts =
  List.map
    (fun (compact, fusion) -> Compiler.options_of_flags ~compact ~fusion ())
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The seeds' outputs of each request, run on its whole [hops]-hop
   block: one request per batch, sampled with the seed [Serve.run_batch]
   draws for a batch that request leads. *)
let whole_block_outputs server ~graph ~features ~fanout ~hops ~model program requests =
  let compiled =
    Plan_cache.get (Serve.plan_cache server) ~model ~graph:graph.G.name
      ~options:Compiler.default_options program
  in
  let inputs = Block.inputs ~caller:"test" ~features ~graph program in
  let replica =
    Block.create ~weights:(Serve.model_weights server) ~features ~origin:"test" ~seed:1 ~graph inputs
      compiled
  in
  Array.map
    (fun (r : Workload.request) ->
      let sub, sets =
        Sampler.sample_union ~seed:((r.Workload.id * 31) + 17) ~graph
          ~seed_sets:[| r.Workload.seeds |] ~fanout ~hops ()
      in
      let exec = Block.stage replica sub in
      Exec.run_plan exec compiled.Compiler.forward;
      T.gather_rows (Env.find exec.Exec.env inputs.Block.out_name).Env.tensor sets.(0))
    requests

(* Serving samples each block only as deep as the program reads, and the
   depth doing so is the program's: a two-hop program served at 1, 2 and
   3 hops returns the bits of whole blocks sampled at that bound, as do a
   stacked two-layer RGCN, a program that writes [Src] (depth [None], so
   its blocks are sampled at the bound) and a node-only program (depth 0,
   sampled at one hop).  At fanout 2 the hops a block skips are draws the
   program never reads, so the bits hold there too.  Every shipped model
   reads one hop. *)
let test_depth_is_the_programs () =
  let graph = Lazy.force parent in
  let features = T.randn (Hector_tensor.Rng.create 7) [| graph.G.num_nodes; 8 |] in
  let requests = trace ~requests:12 graph in
  check_bool "two-hop program reads 2 hops" true (forward_depth (two_hop ()) = Some 2);
  check_bool "two-layer RGCN reads 2 hops" true
    (forward_depth (Hector_models.Model_defs.rgcn_two_layer ~in_dim:8 ()) = Some 2);
  check_bool "a program writing Src has no depth" true
    (forward_depth (two_hop ~src_write:true ()) = None);
  let node_only =
    {
      Ir.name = "node_only";
      decls =
        [
          Ir.Node_input { name = "h"; dim = 8 };
          Ir.Weight_mat { name = "W0"; slice = Ir.Shared; rows = 8; cols = 4 };
        ];
      body =
        [
          Ir.For_each
            ( Ir.Nodes,
              [
                Ir.Assign
                  ( Ir.Cur_node,
                    "out",
                    Ir.Linear (Ir.Feature (Ir.Cur_node, "h"), Ir.Weight ("W0", Ir.Shared)) );
              ] );
        ];
      outputs = [ "out" ];
    }
  in
  check_bool "a node-only program reads no hop" true (forward_depth node_only = Some 0);
  List.iter
    (fun fanout ->
      List.iter
        (fun (model, program) ->
          List.iter
            (fun hops ->
              let config =
                {
                  (exact_config ~max_batch:1 graph) with
                  Serve.model;
                  fanout;
                  hops;
                  weights = [];
                }
              in
              let server = Serve.create ~config ~features ~graph program in
              let served = outputs_of (Serve.serve server requests) in
              let whole =
                whole_block_outputs server ~graph ~features ~fanout ~hops ~model program requests
              in
              Array.iteri
                (fun i o ->
                  check_bool
                    (Printf.sprintf "%s, fanout %d, %d hops, request %d: whole-block bits" model
                       fanout hops i)
                    true
                    (T.shape o = T.shape whole.(i) && bits o = bits whole.(i)))
                served)
            [ 1; 2; 3 ])
        [
          ("two_hop", two_hop ());
          ("rgcn2", Hector_models.Model_defs.rgcn_two_layer ~in_dim:8 ());
          ("src_write", two_hop ~src_write:true ());
          ("node_only", node_only);
        ])
    [ Serve.exact_fanout graph; 2 ];
  List.iter
    (fun (name, program) ->
      List.iter
        (fun options ->
          check_bool
            (Printf.sprintf "%s %s reads one hop" name (Compiler.layout_tag options))
            true
            (forward_depth ~options program = Some 1))
        layouts)
    [
      ("rgcn", rgcn ());
      ("rgat", Hector_models.Model_defs.rgat ~in_dim:8 ~out_dim:4 ());
      ("hgt", Hector_models.Model_defs.hgt ~in_dim:8 ~out_dim:4 ());
      ("rgat x2", Hector_models.Model_defs.rgat_multihead ~in_dim:8 ~out_dim:4 ~heads:2 ());
      ("hgt x2", Hector_models.Model_defs.hgt_multihead ~in_dim:8 ~out_dim:4 ~heads:2 ());
    ]

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
    Alcotest.test_case "row reuse: warm pass projects nothing, same bits" `Quick
      test_row_reuse_warm_pass;
    Alcotest.test_case "create rejects mis-shaped features" `Quick
      test_create_rejects_bad_features;
    Alcotest.test_case "rate and max_wait_ms reject NaN" `Quick test_rejects_nan;
    Alcotest.test_case "admission control sheds under overload" `Quick
      test_admission_shedding;
    Alcotest.test_case "metrics json" `Quick test_metrics_json;
    Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
    Alcotest.test_case "per-batch words independent of the parent" `Quick
      test_batch_words_independent_of_parent;
    Alcotest.test_case "sampled depth is the program's" `Quick test_depth_is_the_programs;
  ]
