(* Tests for the cost-model-guided autotuner and the persistent tuning
   database: estimator exactness (per launch, across the schedule space),
   the one-run search and its out-of-memory fallback, relabel-invariant
   graph signatures, DB round-trips and the database-only admission
   ladder. *)

module Compiler = Hector_core.Compiler
module Ir = Hector_core.Inter_ir
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Dp = Hector_tensor.Domain_pool
module Device = Hector_gpu.Device
module Autotune = Hector_runtime.Autotune
module Tuning_db = Hector_runtime.Tuning_db
module Workload = Hector_serve.Workload
module Serve = Hector_serve.Serve
module Session = Hector_runtime.Session
module Plan_cost = Hector_runtime.Plan_cost
module Plan = Hector_core.Plan
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Pricing = Hector_runtime.Pricing
module Graph_ctx = Hector_runtime.Graph_ctx
module Train = Hector_runtime.Train
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Stats = Hector_gpu.Stats
module Rng = Hector_tensor.Rng
module Datasets = Hector_graph.Datasets

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

(* --- the search ------------------------------------------------------ *)

(* The estimate is the ranking and the one measured epoch confirms the
   winner: the two must have the same bits, for every model, inference
   and training. *)
let test_estimate_is_measurement () =
  let graph = graph_of_seed 7 in
  Array.iteri
    (fun i name ->
      List.iter
        (fun training ->
          let r = Autotune.search ~training ~graph (model_of_idx i) in
          if
            Int64.bits_of_float r.Autotune.best.Autotune.estimated_ms
            <> Int64.bits_of_float r.Autotune.measured_ms
          then
            Alcotest.failf "%s%s: estimate %h ms, measured %h ms" name
              (if training then " training" else "")
              r.Autotune.best.Autotune.estimated_ms r.Autotune.measured_ms)
        [ false; true ])
    model_names

let test_space_distinct () =
  let graph = graph_of_seed 5 in
  List.iter
    (fun training ->
      let r = Autotune.search ~training ~graph (model_of_idx 1) in
      let ids =
        List.map (fun (c : Autotune.candidate) -> options_id c.Autotune.options) r.Autotune.ranked
      in
      check_int "88 candidates" 88 (List.length ids);
      check_int "no id repeats" 88 (List.length (List.sort_uniq compare ids));
      check_bool "ranked by estimate" true
        (List.for_all2
           (fun (a : Autotune.candidate) (b : Autotune.candidate) ->
             a.Autotune.estimated_ms <= b.Autotune.estimated_ms)
           (List.filteri (fun i _ -> i < 87) r.Autotune.ranked)
           (List.tl r.Autotune.ranked)))
    [ false; true ]

(* One steady-state epoch as the search runs it, returning the session so
   callers can read its memory. *)
let run_epoch ?device ~training ~graph compiled =
  let session =
    Session.create
      ~config:
        {
          Session.Config.default with
          device = Option.value device ~default:Session.Config.default.Session.Config.device;
          seed = 11;
        }
      ~graph compiled
  in
  let epoch =
    if training then (
      let rng = Rng.create 3 in
      let labels =
        Array.init graph.G.num_nodes (fun _ -> Rng.int rng (Session.output_dim session))
      in
      fun () -> ignore (Session.train_step session ~labels ()))
    else fun () -> ignore (Session.forward session)
  in
  epoch ();
  Session.reset_clock session;
  epoch ();
  session

(* Witness that a search without an out-of-memory candidate builds one
   session: pricing every ranked candidate allocates no host tensor (a
   plan is priced from the compiled program alone), so the search's
   tensor allocations are exactly one epoch pair's, and one epoch pair
   allocates tensors. *)
let test_one_session () =
  let graph = graph_of_seed 9 in
  let allocs f =
    let before = Hector_tensor.Tensor.allocation_count () in
    let v = f () in
    (v, Hector_tensor.Tensor.allocation_count () - before)
  in
  List.iter
    (fun training ->
      let program = model_of_idx 2 in
      let r, search = allocs (fun () -> Autotune.search ~training ~graph program) in
      let compiled =
        List.map (fun (c : Autotune.candidate) -> Compiler.compile ~options:c.Autotune.options program) r.Autotune.ranked
      in
      let (), pricing =
        allocs (fun () ->
            let estimator = Plan_cost.create ~graph () in
            List.iter (fun c -> ignore (Plan_cost.estimate_ms estimator c)) compiled)
      in
      let (), one = allocs (fun () -> ignore (run_epoch ~training ~graph (List.hd compiled))) in
      check_int "pricing allocates no tensor" 0 pricing;
      check_bool "an epoch pair allocates" true (one > 0);
      check_int "search = one epoch pair" one search)
    [ false; true ]

let measured_ms ~training ~graph program options =
  Engine.elapsed_ms
    (Session.engine (run_epoch ~training ~graph (Compiler.compile ~options program)))

let fixed_layouts training =
  List.map
    (fun (compact, fusion) -> Compiler.options_of_flags ~training ~compact ~fusion ())
    [ (false, false); (true, false); (false, true); (true, true) ]

let find_ranked (r : Autotune.result) options =
  List.find_opt
    (fun (c : Autotune.candidate) -> options_id c.Autotune.options = options_id options)
    r.Autotune.ranked

let test_estimator_exact_fixed_layouts () =
  (* the four U/C/F/C+F configurations at the default schedule are all
     ranked, and each estimate matches a measured epoch bit for bit *)
  let graph = graph_of_seed 7 in
  let program = model_of_idx 1 in
  let r = Autotune.search ~graph program in
  List.iter
    (fun options ->
      match find_ranked r options with
      | None -> Alcotest.failf "%s is not ranked" (options_id options)
      | Some c ->
          check_bool
            (Printf.sprintf "estimate matches measurement for %s" (options_id options))
            true
            (Int64.equal
               (Int64.bits_of_float c.Autotune.estimated_ms)
               (Int64.bits_of_float (measured_ms ~training:false ~graph program options))))
    (fixed_layouts false)

(* Measure the estimator's top-k, the fixed layouts and the tail of the
   ranking: every measurement agrees with its estimate, the fastest of
   them sits inside the top-k, and none beats the search's winner. *)
let prop_best_in_topk =
  QCheck.Test.make ~name:"measured best lies in the estimator top-k" ~count:5
    QCheck.(make Gen.(triple (int_range 0 2) (int_range 0 40) (int_range 1 2)))
    (fun (model_idx, seed, domains) ->
      with_domains domains (fun () ->
          let graph = graph_of_seed seed in
          let training = seed mod 2 = 0 in
          let top_k = 4 in
          let program = model_of_idx model_idx in
          let r = Autotune.search ~training ~graph program in
          let n = List.length r.Autotune.ranked in
          let top, tail =
            ( List.filteri (fun i _ -> i < top_k) r.Autotune.ranked,
              List.filteri (fun i _ -> i >= max top_k (n - 2)) r.Autotune.ranked )
          in
          let layouts = List.filter_map (find_ranked r) (fixed_layouts training) in
          let measured =
            List.map
              (fun (c : Autotune.candidate) ->
                (c, measured_ms ~training ~graph program c.Autotune.options))
              (top @ layouts @ tail)
          in
          let fastest = List.fold_left (fun m (_, ms) -> Float.min m ms) infinity measured in
          let top_ids =
            List.map (fun (c : Autotune.candidate) -> options_id c.Autotune.options) top
          in
          let as_fast_in_top =
            List.exists
              (fun ((c : Autotune.candidate), ms) ->
                List.mem (options_id c.Autotune.options) top_ids && ms <= fastest)
              measured
          in
          let exact =
            List.for_all
              (fun ((c : Autotune.candidate), ms) ->
                Float.abs (c.Autotune.estimated_ms -. ms) <= 1e-6 *. Float.max 1.0 ms)
              measured
          in
          as_fast_in_top && exact && r.Autotune.measured_ms <= fastest))

let peak_bytes ~training ~graph program (c : Autotune.candidate) =
  let compiled = Compiler.compile ~options:c.Autotune.options program in
  Hector_gpu.Memory.peak_bytes
    (Engine.memory (Session.engine (run_epoch ~training ~graph compiled)))

(* A device too small for the best-ranked candidate: the search returns
   the best-ranked candidate that fits, its estimate unchanged; a device
   nothing fits on raises. *)
let test_oom_moves_down () =
  let graph = graph_of_seed 13 in
  let training = true in
  let program = model_of_idx 1 in
  let r = Autotune.search ~training ~graph program in
  let top = List.hd r.Autotune.ranked in
  let top_peak = peak_bytes ~training ~graph program top in
  let rec first_smaller i = function
    | [] -> Alcotest.fail "every candidate peaks at the top candidate's memory"
    | c :: rest ->
        let p = peak_bytes ~training ~graph program c in
        if p < top_peak then (i, c, p) else first_smaller (i + 1) rest
  in
  let k, want, peak = first_smaller 1 (List.tl r.Autotune.ranked) in
  let with_capacity bytes =
    { Device.rtx3090 with Device.global_mem_bytes = Device.rtx3090.Device.reserved_bytes +. bytes }
  in
  let small =
    Autotune.search ~device:(with_capacity ((peak +. top_peak) /. 2.0)) ~training ~graph program
  in
  Alcotest.(check string)
    (Printf.sprintf "winner is ranked candidate %d" k)
    (options_id want.Autotune.options)
    (options_id small.Autotune.best.Autotune.options);
  check_bool "same ranking" true
    (List.map (fun (c : Autotune.candidate) -> options_id c.Autotune.options) small.Autotune.ranked
    = List.map (fun (c : Autotune.candidate) -> options_id c.Autotune.options) r.Autotune.ranked);
  check_bool "winner's estimate is its measurement" true
    (Int64.bits_of_float small.Autotune.best.Autotune.estimated_ms
    = Int64.bits_of_float small.Autotune.measured_ms);
  match Autotune.search ~device:(with_capacity 1.0) ~training ~graph program with
  | _ -> Alcotest.fail "a device nothing fits on must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "message" "Autotune.search: no configuration fits in device memory" msg

(* Candidates the compiler rejects leave the space; when every candidate
   is rejected the search says so rather than returning nothing. *)
let test_no_candidate_compiles () =
  let graph = graph_of_seed 3 in
  let expect label ~training program =
    match Autotune.search ~training ~graph program with
    | _ -> Alcotest.failf "%s: search over an uncompilable program returned" label
    | exception Invalid_argument msg ->
        Alcotest.(check string) label "Autotune.search: no candidate compiles" msg
  in
  (* fails the checker: an output nothing produces *)
  expect "unchecked output" ~training:false
    { (model_of_idx 0) with Ir.outputs = [ "no_such_output" ] };
  (* checks, but autodiff cannot differentiate an opaque call *)
  expect "untrainable body" ~training:true
    {
      Ir.name = "opaque";
      decls = [ Ir.Node_input { name = "h"; dim = 4 } ];
      body =
        [
          Ir.For_each
            ( Ir.Nodes,
              [ Ir.Assign (Ir.Cur_node, "out", Ir.Opaque ("f", [ Ir.Feature (Ir.Cur_node, "h") ])) ]
            );
        ];
      outputs = [ "out" ];
    }

(* --- per-launch parity ---------------------------------------------- *)

(* The estimator's kernel list against the launches a steady-state epoch
   hands the engine, one by one and in order: name, category, simulated
   time and provenance per launch, and per kernel name the launch count,
   flops and bytes the engine's statistics recorded. *)
(* What the engine records for [k]: its work at the graph's cost scale. *)
let scaled ~scale (k : Kernel.t) =
  if (not k.Kernel.graph_proportional) || scale = 1.0 then k
  else
    {
      k with
      Kernel.flops = k.Kernel.flops *. scale;
      bytes_coalesced = k.Kernel.bytes_coalesced *. scale;
      bytes_gathered = k.Kernel.bytes_gathered *. scale;
      bytes_atomic = k.Kernel.bytes_atomic *. scale;
    }

let check_launch_parity ~label ~graph compiled =
  let device = Session.Config.default.Session.Config.device in
  let session =
    Session.create ~config:{ Session.Config.default with trace = true } ~graph compiled
  in
  let epoch =
    if compiled.Compiler.options.Compiler.training then (
      let rng = Rng.create 3 in
      let classes = Session.output_dim session in
      let labels = Array.init graph.G.num_nodes (fun _ -> Rng.int rng classes) in
      fun () -> ignore (Session.train_step session ~labels ()))
    else fun () -> ignore (Session.forward session)
  in
  epoch ();
  Session.reset_clock session;
  epoch ();
  let engine = Session.engine session in
  let scale = graph.G.scale in
  let executed =
    List.map
      (fun (e : Engine.event) -> (e.Engine.name, e.Engine.category, e.Engine.duration_ms, e.Engine.prov))
      (Engine.events engine)
  in
  let kernels = Plan_cost.kernels (Plan_cost.create ~device ~graph ()) compiled in
  let expected =
    List.map
      (fun (k : Kernel.t) ->
        (k.Kernel.name, k.Kernel.category, Engine.predict_ms ~scale device k, k.Kernel.prov))
      kernels
  in
  let prov = function
    | None -> "-"
    | Some (p : Kernel.provenance) ->
        Printf.sprintf "%s@%d/%s[%s]" p.Kernel.op p.Kernel.step p.Kernel.origin
          (String.concat "," p.Kernel.fused)
  in
  check_int (label ^ ": launches") (List.length expected) (List.length executed);
  List.iteri
    (fun i ((gn, gc, gms, gp), (wn, wc, wms, wp)) ->
      if gn <> wn || gc <> wc || Int64.bits_of_float gms <> Int64.bits_of_float wms || gp <> wp then
        Alcotest.failf "%s: launch %d is %s (%s, %h ms, %s), estimator has %s (%s, %h ms, %s)" label i
          gn (Kernel.category_name gc) gms (prov gp) wn (Kernel.category_name wc) wms (prov wp))
    (List.combine executed expected);
  (* per kernel name: what the engine's statistics hold vs the estimator's
     kernels at the same scale *)
  let want = Hashtbl.create 64 in
  List.iter
    (fun k ->
      let k = scaled ~scale k in
      let n, f, b = Option.value (Hashtbl.find_opt want k.Kernel.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace want k.Kernel.name (n + 1, f +. k.Kernel.flops, b +. Kernel.total_bytes k))
    kernels;
  let got = Stats.by_kernel (Engine.stats engine) in
  check_int (label ^ ": kernel names") (Hashtbl.length want) (List.length got);
  List.iter
    (fun (name, (e : Stats.entry)) ->
      match Hashtbl.find_opt want name with
      | None -> Alcotest.failf "%s: %s launched but not estimated" label name
      | Some (n, f, b) ->
          if n <> e.Stats.launches || f <> e.Stats.flops || b <> e.Stats.bytes then
            Alcotest.failf "%s: %s is %d launches, %h flops, %h bytes; estimator %d, %h, %h" label
              name e.Stats.launches e.Stats.flops e.Stats.bytes n f b)
    got

(* Every knob the search turns, on top of each layout and fusion setting:
   GEMM tile/coarsening/launch bounds, plain atomics and node gathers. *)
let schedule_variants (o : Compiler.options) =
  let gemm tile_width coarsen =
    {
      o with
      Compiler.gemm_schedule =
        { Hector_core.Gemm_spec.tile_width; coarsen; launch_bounds = tile_width = 32 };
    }
  in
  [
    o;
    { o with Compiler.fuse_ops = false };
    gemm 16 2;
    gemm 16 4;
    gemm 32 2;
    gemm 32 4;
    { o with Compiler.traversal_schedule = { Hector_core.Traversal_spec.warp_accumulate = false } };
    { o with Compiler.prefer_node_gather = true };
  ]

let test_launch_parity () =
  List.iter
    (fun dataset ->
      let graph = Datasets.load ~max_nodes:500 ~max_edges:1500 (Datasets.find dataset) in
      Array.iter
        (fun model ->
          let program = Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:4 () in
          List.iter
            (fun (compact, fusion) ->
              List.iter
                (fun training ->
                  List.iter
                    (fun options ->
                      check_launch_parity
                        ~label:(Printf.sprintf "%s %s %s" dataset model (options_id options))
                        ~graph
                        (Compiler.compile ~options program))
                    (schedule_variants (Compiler.options_of_flags ~training ~compact ~fusion ())))
                [ false; true ])
            [ (false, false); (true, false); (false, true); (true, true) ])
        model_names)
    [ "am"; "fb15k" ];
  (* the multi-head models declare 4-20 weights plus fused products *)
  let graph = Datasets.load ~max_nodes:500 ~max_edges:1500 (Datasets.find "am") in
  List.iter
    (fun (model, program) ->
      List.iter
        (fun heads ->
          List.iter
            (fun (compact, fusion) ->
              let options = Compiler.options_of_flags ~training:true ~compact ~fusion () in
              check_launch_parity
                ~label:(Printf.sprintf "am %s x%d %s" model heads (options_id options))
                ~graph
                (Compiler.compile ~options (program ~heads)))
            [ (false, false); (true, false); (false, true); (true, true) ])
        [ 2; 4 ])
    [
      ("rgat_multihead", fun ~heads -> Hector_models.Model_defs.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads ());
      ("hgt_multihead", fun ~heads -> Hector_models.Model_defs.hgt_multihead ~in_dim:8 ~out_dim:8 ~heads ());
    ]

(* The shape facts pricing reads from a plan are what the executor binds:
   after every step of a training epoch, each buffer or declared input the
   environment holds has the width and row space [Pricing.binding] gives
   it (a backward plan's kept forward values keep the forward plan's
   space), and each bound weight stack, fused products included, has its
   declared shape. *)
let test_priced_shapes_are_bound () =
  let graph = Datasets.load ~max_nodes:500 ~max_edges:1500 (Datasets.find "am") in
  let ctx = Graph_ctx.create graph in
  let programs =
    List.map (fun m -> (m, Hector_models.Model_defs.by_name m ~in_dim:8 ~out_dim:4 ())) (Array.to_list model_names)
    @ [
        ("rgat_multihead", Hector_models.Model_defs.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads:2 ());
        ("hgt_multihead", Hector_models.Model_defs.hgt_multihead ~in_dim:8 ~out_dim:8 ~heads:2 ());
      ]
  in
  List.iter
    (fun (model, program) ->
      List.iter
        (fun (compact, fusion) ->
          let options = Compiler.options_of_flags ~training:true ~compact ~fusion () in
          let compiled = Compiler.compile ~options program in
          let exec = Session.exec (Session.create ~graph compiled) in
          let env = exec.Exec.env in
          let check (plan : Plan.t) i =
            let fail n what =
              Alcotest.failf "%s %s %s step %d: %s: %s" model (options_id options) plan.Plan.name i n what
            in
            List.iter
              (fun n ->
                (match Env.find_opt env n with
                | Some e when Pricing.binding plan n <> Some (e.Env.dim, e.Env.space) ->
                    fail n "priced width or space differs from the bound one"
                | _ -> ());
                match Env.weight_opt env n with
                | Some w when Graph_ctx.weight_shape ctx plan.Plan.program n <> Hector_tensor.Tensor.shape w ->
                    fail n "declared weight shape differs from the bound stack"
                | _ -> ())
              (List.map (fun (b : Plan.buffer) -> b.Plan.name) plan.Plan.buffers
              @ List.map Ir.decl_name plan.Plan.program.Ir.decls)
          in
          let fwd = compiled.Compiler.forward and bwd = Option.get compiled.Compiler.backward in
          Exec.run_plan ~on_step:(check fwd) ~free_temps:false exec fwd;
          let labels = Array.make graph.G.num_nodes 0 in
          ignore (Train.loss_and_grads ~on_step:(check bwd) ~exec compiled ~labels))
        [ (false, false); (true, false); (false, true); (true, true) ])
    programs

(* A register local defined from another local is as wide as the local it
   reads: with [t0] a 16-wide product and [t1 = exp t0], pricing charges
   [neg t1] the 16 flops per edge it charges [neg t0], for 2 * 16 * 16 +
   16 + 16 flops per edge in all. *)
let test_priced_local_widths_chain () =
  let module Ts = Hector_core.Traversal_spec in
  let graph = graph_of_seed 3 in
  let program =
    {
      Ir.name = "locals";
      decls =
        [
          Ir.Node_input { name = "h"; dim = 16 };
          Ir.Node_input { name = "o"; dim = 16 };
          Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = 16; cols = 16 };
        ];
      body = [];
      outputs = [];
    }
  in
  let flops_per_edge last =
    let body =
      [
        Ir.Assign
          (Ir.Cur_edge, "t0", Ir.Linear (Ir.Feature (Ir.Src, "h"), Ir.Weight ("W", Ir.By_etype)));
        Ir.Assign (Ir.Cur_edge, "t1", Ir.Unop (Ir.Exp, Ir.Data (Ir.Cur_edge, "t0")));
        Ir.Accumulate (Ir.Dst, "o", Ir.Unop (Ir.Neg, Ir.Data (Ir.Cur_edge, last)));
      ]
    in
    let step =
      Plan.Traversal
        {
          Ts.kid = 0;
          strategy = Ts.Edge_parallel;
          body;
          locals = [ "t0"; "t1" ];
          schedule = Ts.default_schedule;
          passes = [];
        }
    in
    let plan =
      Hector_core.Traversal_passes.record
        {
          Plan.name = "locals";
          layout = Hector_core.Layout.default;
          program;
          buffers = [];
          steps = [ step ];
          spaces = [];
          memory = Hector_core.Buffer_plan.analyze ~buffers:[] ~steps:[ step ];
        }
    in
    match Pricing.schedule ~ctx:(Graph_ctx.create graph) plan with
    | { Pricing.at_start = [||]; at_step = [| [| k |] |] } -> k.Kernel.flops /. float_of_int graph.G.num_edges
    | _ -> Alcotest.fail "one traversal launch expected"
  in
  Alcotest.(check (float 0.0)) "neg t1 priced 16 wide" 544.0 (flops_per_edge "t1");
  Alcotest.(check (float 0.0)) "as neg t0 is" (flops_per_edge "t0") (flops_per_edge "t1")

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
           fuse_ops = false;
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

(* Before [fuse_ops] became a plain flag, a winner that left fusion at its
   default was written with [null]; such an entry means fused. *)
let test_db_null_fuse_ops () =
  let db =
    Tuning_db.of_json
      "{\"version\":1,\"entries\":[{\"model\":\"8a5e\",\"model_name\":\"rgcn\",\
       \"device\":\"RTX 3090\",\"training\":false,\"nodes\":[292,168],\"edges\":[1138,574],\
       \"mean_degree\":3.9,\"options\":{\"compact\":false,\"csr\":false,\"presorted\":true,\
       \"fusion\":false,\"training\":false,\"tile\":16,\"coarsen\":1,\"launch_bounds\":false,\
       \"warp_accumulate\":true,\"node_gather\":false,\"fuse_ops\":null},\
       \"options_id\":\"U:coo:t16c1:warp\",\"estimated_ms\":0.5,\"measured_ms\":0.5}]}\n"
  in
  match Tuning_db.entries db with
  | [ e ] ->
      check_bool "fused" true e.Tuning_db.options.Compiler.fuse_ops;
      check_bool "the default options" true (e.Tuning_db.options = Compiler.default_options)
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

(* --- the admission ladder ---------------------------------------------- *)

(* Serving resolves its options from the database alone: a winner
   [hector autotune --db] recorded is what admission compiles, with
   training forced off, and an empty database yields the defaults. *)
let test_db_admission () =
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
  check_bool "empty database: default options" true
    (Hector_serve.Plan_cache.tuned_options (Tuning_db.create ()) ~graph program
    = Compiler.default_options);
  let path = Filename.temp_file "hector_tunedb" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let db = Tuning_db.create () in
      let r = Autotune.search ~db ~graph program in
      Tuning_db.save db path;
      Alcotest.(check string) "admission options are the recorded winner"
        (options_id r.Autotune.best.Autotune.options)
        (options_id
           (Hector_serve.Plan_cache.tuned_options (Tuning_db.load path) ~graph program));
      let config =
        {
          Serve.default_config with
          Serve.fanout = Serve.exact_fanout graph;
          hops = 2;
          max_batch = Some 4;
          max_wait_ms = 5.0;
          queue_capacity = Some 64;
          tune_db = Some path;
        }
      in
      let server = Serve.create ~config ~graph program in
      let requests =
        Workload.generate
          ~spec:{ Workload.default_spec with Workload.requests = 6; seeds_per_request = 2 }
          ~num_nodes:graph.G.num_nodes ()
      in
      let responses = Serve.serve server requests in
      check_int "all requests answered" (Array.length requests) (Array.length responses);
      (* the one plan-cache miss is the admitted plan itself: a warm
         database admits without searching or compiling any candidate *)
      check_int "one compile, at admission, no candidates" 1
        (Hector_serve.Plan_cache.misses (Serve.plan_cache server)))

let suite =
  [
    QCheck_alcotest.to_alcotest ~long:true prop_best_in_topk;
    Alcotest.test_case "estimator exact on fixed layouts" `Quick test_estimator_exact_fixed_layouts;
    Alcotest.test_case "estimate == measured epoch, bitwise" `Quick test_estimate_is_measurement;
    Alcotest.test_case "estimated kernels == executed launches, one by one" `Quick
      test_launch_parity;
    Alcotest.test_case "88 distinct candidates" `Quick test_space_distinct;
    Alcotest.test_case "a search runs one session" `Quick test_one_session;
    Alcotest.test_case "out of memory moves down the ranking" `Quick test_oom_moves_down;
    Alcotest.test_case "no candidate compiles" `Quick test_no_candidate_compiles;
    QCheck_alcotest.to_alcotest prop_signature_stable;
    Alcotest.test_case "tuning DB round-trip" `Quick test_db_roundtrip;
    Alcotest.test_case "tuning DB in the old layout loads" `Quick test_db_old_layout;
    Alcotest.test_case "tuning DB null fuse_ops loads fused" `Quick test_db_null_fuse_ops;
    Alcotest.test_case "tuning DB corrupt/missing load" `Quick test_db_load_corrupt_and_missing;
    Alcotest.test_case "lookup ladder" `Quick test_lookup_ladder;
    Alcotest.test_case "warm DB admission: zero search/compile" `Quick test_db_admission;
    Alcotest.test_case "priced shapes == bound shapes" `Quick test_priced_shapes_are_bound;
    Alcotest.test_case "priced local widths chain through locals" `Quick
      test_priced_local_widths_chain;
  ]
