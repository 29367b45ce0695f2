(* Tests for neighborhood sampling and minibatch training (§6). *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Sampler = Hector_graph.Sampler
module Compiler = Hector_core.Compiler
module Minibatch = Hector_runtime.Minibatch
module Session = Hector_runtime.Session
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Ir = Hector_core.Inter_ir

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parent =
  lazy
    (Gen.generate
       {
         Gen.name = "parent";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 400;
         num_edges = 1600;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 21;
       })

let test_block_is_valid_graph () =
  let graph = Lazy.force parent in
  let block = Sampler.sample ~graph ~seeds:[| 0; 10; 50 |] ~fanout:4 ~hops:2 () in
  let sub = block.Sampler.graph in
  (* Hetgraph.create validated invariants; check the mappings *)
  check_int "one origin per node" sub.G.num_nodes (Array.length block.Sampler.origin_node);
  check_int "one origin per edge" sub.G.num_edges (Array.length block.Sampler.origin_edge);
  (* node types survive the renumbering *)
  Array.iteri
    (fun i v -> check_int "ntype preserved" graph.G.node_type.(v) sub.G.node_type.(i))
    block.Sampler.origin_node;
  (* every subgraph edge is the parent edge it claims to be *)
  Array.iteri
    (fun i eid ->
      check_int "etype" graph.G.etype.(eid) sub.G.etype.(i);
      check_int "src" graph.G.src.(eid) block.Sampler.origin_node.(sub.G.src.(i));
      check_int "dst" graph.G.dst.(eid) block.Sampler.origin_node.(sub.G.dst.(i)))
    block.Sampler.origin_edge

let test_seeds_mapped () =
  let graph = Lazy.force parent in
  let seeds = [| 3; 77; 200 |] in
  let block = Sampler.sample ~graph ~seeds ~fanout:3 ~hops:1 () in
  Array.iteri
    (fun i sub_id ->
      check_int "seed maps back" seeds.(i) block.Sampler.origin_node.(sub_id))
    block.Sampler.seed_nodes

let test_fanout_respected () =
  let graph = Lazy.force parent in
  let block = Sampler.sample ~graph ~seeds:[| 5; 9 |] ~fanout:2 ~hops:1 () in
  let sub = block.Sampler.graph in
  (* one hop from two seeds with fanout 2: at most 4 edges *)
  check_bool "edge bound" true (sub.G.num_edges <= 4);
  let din = G.in_degrees sub in
  Array.iter (fun d -> check_bool "per-node fanout" true (d <= 2)) din

let test_hops_grow_block () =
  let graph = Lazy.force parent in
  let one = Sampler.sample ~graph ~seeds:[| 42 |] ~fanout:4 ~hops:1 () in
  let three = Sampler.sample ~graph ~seeds:[| 42 |] ~fanout:4 ~hops:3 () in
  check_bool "more hops, no smaller" true
    (three.Sampler.graph.G.num_nodes >= one.Sampler.graph.G.num_nodes)

let test_sampler_validation () =
  let graph = Lazy.force parent in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "empty seeds" true (raises (fun () -> Sampler.sample ~graph ~seeds:[||] ~fanout:2 ~hops:1 ()));
  check_bool "bad fanout" true
    (raises (fun () -> Sampler.sample ~graph ~seeds:[| 0 |] ~fanout:0 ~hops:1 ()));
  check_bool "seed out of range" true
    (raises (fun () -> Sampler.sample ~graph ~seeds:[| 100000 |] ~fanout:2 ~hops:1 ()))

let test_sampler_deterministic () =
  let graph = Lazy.force parent in
  let a = Sampler.sample ~seed:4 ~graph ~seeds:[| 1; 2 |] ~fanout:3 ~hops:2 () in
  let b = Sampler.sample ~seed:4 ~graph ~seeds:[| 1; 2 |] ~fanout:3 ~hops:2 () in
  check_bool "same block" true (a.Sampler.origin_edge = b.Sampler.origin_edge)

(* --- minibatch training --- *)

let test_minibatch_step_report () =
  let graph = Lazy.force parent in
  let rng = Rng.create 5 in
  let features = T.randn rng [| graph.G.num_nodes; 8 |] in
  let labels = Array.init graph.G.num_nodes (fun v -> graph.G.node_type.(v)) in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
      (Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:3 ())
  in
  let trainer = Minibatch.create ~graph ~features ~labels compiled in
  let report = Minibatch.step trainer ~batch:[| 0; 1; 2; 3 |] () in
  check_bool "loss finite" true (Float.is_finite report.Minibatch.loss);
  check_bool "block nonempty" true (report.Minibatch.block_nodes > 0);
  check_bool "transfer charged" true (report.Minibatch.transfer_ms > 0.0);
  check_bool "compute charged" true (report.Minibatch.compute_ms > 0.0)

let test_minibatch_learns () =
  (* labels = node type (mod classes): learnable signal through typed
     message passing; minibatch SGD over blocks must reduce the loss *)
  let graph = Lazy.force parent in
  let rng = Rng.create 11 in
  let classes = 3 in
  let labels = Array.init graph.G.num_nodes (fun v -> graph.G.node_type.(v) mod classes) in
  let features =
    T.init [| graph.G.num_nodes; 8 |] (fun idx ->
        (if idx.(1) = labels.(idx.(0)) then 1.0 else 0.0) +. (0.3 *. Rng.gaussian rng))
  in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:false ())
      (Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:classes ())
  in
  let trainer = Minibatch.create ~graph ~features ~labels compiled in
  let first = Minibatch.train_epochs trainer ~lr:0.3 ~batch_size:80 ~epochs:1 () in
  let last = Minibatch.train_epochs trainer ~lr:0.3 ~batch_size:80 ~epochs:4 () in
  check_bool (Printf.sprintf "loss decreases (%.3f -> %.3f)" first last) true (last < first)

let test_minibatch_requires_training () =
  let graph = Lazy.force parent in
  let features = T.zeros [| graph.G.num_nodes; 8 |] in
  let labels = Array.make graph.G.num_nodes 0 in
  let compiled =
    Compiler.compile ~options:Compiler.default_options
      (Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:3 ())
  in
  check_bool "raises" true
    (try
       ignore (Minibatch.create ~graph ~features ~labels compiled);
       false
     with Invalid_argument _ -> true)

let test_sample_union_maps_each_request () =
  let graph = Lazy.force parent in
  let seed_sets = [| [| 3; 77 |]; [| 77; 200; 9 |]; [| 3 |] |] in
  let sub, block_sets =
    Sampler.sample_union ~graph ~seed_sets ~fanout:4 ~hops:2 ()
  in
  check_int "one block id set per request" (Array.length seed_sets) (Array.length block_sets);
  Array.iteri
    (fun k ids ->
      check_int "request arity preserved" (Array.length seed_sets.(k)) (Array.length ids);
      Array.iteri
        (fun j id -> check_int "block id maps to the request's seed" seed_sets.(k).(j)
            sub.Sampler.origin_node.(id))
        ids)
    block_sets;
  (* the union block's seeds are exactly the distinct seeds, in order *)
  check_bool "union seeds" true
    (Array.map (fun id -> sub.Sampler.origin_node.(id)) sub.Sampler.seed_nodes
     = [| 3; 77; 200; 9 |])

let test_minibatch_same_seed_same_losses () =
  let graph = Lazy.force parent in
  let rng = Rng.create 5 in
  let features = T.randn rng [| graph.G.num_nodes; 8 |] in
  let labels = Array.init graph.G.num_nodes (fun v -> graph.G.node_type.(v)) in
  List.iter
    (fun model ->
      let compiled =
        Compiler.compile
          ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
          (Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:3 ())
      in
      let run seed =
        let trainer = Minibatch.create ~seed ~graph ~features ~labels compiled in
        List.init 3 (fun _ ->
            Minibatch.train_epochs trainer ~lr:0.1 ~batch_size:100 ~epochs:1 ())
      in
      let a = run 7 and b = run 7 in
      check_bool (model ^ ": same seed, identical losses") true (a = b);
      List.iter (fun l -> check_bool (model ^ ": finite") true (Float.is_finite l)) a)
    [ "rgcn"; "hgt" ]

let bits t =
  let data, off = T.storage t in
  Array.init (T.numel t) (fun i -> Int64.bits_of_float data.(off + i))

let same_weights label want got =
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name got with
      | None -> Alcotest.failf "%s: weight %s missing" label name
      | Some g -> check_bool (Printf.sprintf "%s: %s bits" label name) true (bits w = bits g))
    want;
  check_int (label ^ ": weight count") (List.length want) (List.length got)

let minibatch_fixture () =
  let graph = Lazy.force parent in
  let features = T.randn (Rng.create 13) [| graph.G.num_nodes; 8 |] in
  let labels = Array.init graph.G.num_nodes (fun v -> graph.G.node_type.(v) mod 3) in
  (graph, features, labels)

let compile_training model ~compact ~fusion =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training:true ~compact ~fusion ())
    (Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:3 ())

(* distinct seeds, a different batch each step *)
let batch_of step = Array.init (16 + (step * 5)) (fun i -> ((step * 53) + (i * 7)) mod 400)

(* The block-replica trainer against the per-step-session one it replaced
   (test/minibatch_oracle.ml), from the same initial weights: every loss,
   every compute_ms and the final weights agree bit for bit over five
   steps, each step's sample drawn from the step count. *)
let test_minibatch_matches_oracle () =
  let graph, features, labels = minibatch_fixture () in
  List.iter
    (fun (label, model, compact, fusion) ->
      let compiled = compile_training model ~compact ~fusion in
      let trainer = Minibatch.create ~seed:4 ~graph ~features ~labels compiled in
      let weights = List.map (fun (n, w) -> (n, T.copy w)) (Minibatch.weights trainer) in
      let oracle =
        Minibatch_oracle.create ~seed:4 ~graph ~features ~labels ~weights compiled
      in
      for step = 1 to 5 do
        let batch = batch_of step in
        let r = Minibatch.step trainer ~lr:0.1 ~fanout:4 ~hops:2 ~batch () in
        let loss, compute_ms =
          Minibatch_oracle.step oracle ~lr:0.1 ~fanout:4 ~hops:2 ~batch
        in
        let same what a b =
          check_bool
            (Printf.sprintf "%s step %d: %s %h = %h" label step what a b)
            true
            (Int64.bits_of_float a = Int64.bits_of_float b)
        in
        same "loss" loss r.Minibatch.loss;
        same "compute_ms" compute_ms r.Minibatch.compute_ms
      done;
      same_weights (label ^ " final") weights (Minibatch.weights trainer))
    [
      ("RGCN U", "rgcn", false, false);
      ("RGCN C", "rgcn", true, false);
      ("RGAT C+F", "rgat", true, true);
    ]

let with_domains n f =
  Hector_tensor.Domain_pool.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Hector_tensor.Domain_pool.set_num_domains None) f

(* Mini-batch training takes its loss over its seeds.  At exact fanout and
   at least the model's depth in hops, each seed's output on the block is
   its output on the parent, and every other block row only feeds the
   seeds, so a step's loss and weight gradients are a parent-graph
   session step's whose loss is masked to the same seeds — up to the
   order of the sums, to 1e-6.  The trainer's gradients are read through
   its one SGD step at lr 1: w0 - w1. *)
let minibatch_diff = ref 0.0

let minibatch_matches_masked_parent ~domains ~batch ~hops =
  let graph, features, labels = minibatch_fixture () in
  let fanout = Array.fold_left max 1 (G.in_degrees graph) in
  let owned = Array.make graph.G.num_nodes false in
  Array.iter (fun v -> owned.(v) <- true) batch;
  let inv_n = 1.0 /. float_of_int (Array.fold_left (fun n o -> if o then n + 1 else n) 0 owned) in
  let close what a b =
    let d = Float.abs (a -. b) in
    minibatch_diff := Float.max !minibatch_diff d;
    if not (d <= 1e-6) then Alcotest.failf "%s: %.17g vs %.17g" what a b
  in
  with_domains domains (fun () ->
      List.iter
        (fun (model, layout, compact, fusion) ->
          let label = Printf.sprintf "%s %s, %d domains" model layout domains in
          let compiled = compile_training model ~compact ~fusion in
          let trainer = Minibatch.create ~seed:4 ~graph ~features ~labels compiled in
          let w0 = List.map (fun (n, w) -> (n, T.copy w)) (Minibatch.weights trainer) in
          let r = Minibatch.step trainer ~lr:1.0 ~fanout ~hops ~batch () in
          let session =
            Session.create
              ~config:{ Session.Config.default with seed = 4; node_inputs = [ ("h", features) ] }
              ~graph compiled
          in
          let loss =
            Hector_runtime.Train.loss_and_grads ~owned ~inv_n ~exec:(Session.exec session) compiled ~labels
          in
          close (label ^ ": loss") loss r.Minibatch.loss;
          let grads = Session.weight_grads session in
          List.iter
            (fun (name, w1) ->
              let w0 = List.assoc name w0 in
              let g = List.assoc name grads in
              let a0, o0 = T.storage w0 and a1, o1 = T.storage w1 and ga, go = T.storage g in
              for i = 0 to T.numel w1 - 1 do
                close
                  (Printf.sprintf "%s: d%s[%d]" label name i)
                  ga.(go + i)
                  (a0.(o0 + i) -. a1.(o1 + i))
              done)
            (Minibatch.weights trainer))
        [
          ("rgcn", "U", false, false);
          ("rgcn", "C+F", true, true);
          ("rgat", "U", false, false);
          ("rgat", "C+F", true, true);
          ("hgt", "U", false, false);
          ("hgt", "C+F", true, true);
        ]);
  true

let prop_minibatch_loss_is_the_seeds =
  QCheck.Test.make ~name:"a minibatch step == a parent step with its loss masked to the seeds" ~count:2
    ~long_factor:5
    QCheck.(
      make
        ~print:(fun (k, start, hops) -> Printf.sprintf "%d seeds from %d, %d hops" k start hops)
        Gen.(triple (int_range 1 40) (int_bound 399) (int_range 1 2)))
    (fun (k, start, hops) ->
      let batch = Array.init k (fun i -> (start + (i * 7)) mod 400) in
      let ok = List.for_all (fun domains -> minibatch_matches_masked_parent ~domains ~batch ~hops) [ 1; 2 ] in
      Printf.printf "largest loss or gradient difference so far: %g\n" !minibatch_diff;
      ok)

(* the trainer starts where a parent-graph session with the same seed and
   features starts: serving's draw *)
let test_minibatch_initial_weights () =
  let graph, features, labels = minibatch_fixture () in
  List.iter
    (fun (model, compact, fusion) ->
      let compiled = compile_training model ~compact ~fusion in
      let trainer = Minibatch.create ~seed:9 ~graph ~features ~labels compiled in
      let session =
        Session.create
          ~config:{ Session.Config.default with seed = 9; node_inputs = [ ("h", features) ] }
          ~graph compiled
      in
      same_weights model (Session.weights session) (Minibatch.weights trainer))
    [ ("rgcn", false, false); ("rgat", true, true); ("hgt", false, false) ]

(* A training replica keeps no projected-row table: its weights change
   every step.  After an SGD step, a block staged on it again computes
   every row from the new weights — bit for bit what a replica created
   with those weights computes — and no longer what it computed before. *)
let test_training_block_recomputes () =
  let module Block = Hector_runtime.Block in
  let module Exec = Hector_runtime.Exec in
  let module Env = Hector_runtime.Env in
  let module Train = Hector_runtime.Train in
  let graph, features, labels = minibatch_fixture () in
  List.iter
    (fun (model, compact, fusion) ->
      let compiled = compile_training model ~compact ~fusion in
      let inputs =
        Block.inputs ~caller:"test" ~features ~graph compiled.Compiler.forward.Hector_core.Plan.program
      in
      let replica weights = Block.create ~weights ~features ~origin:"test" ~seed:5 ~graph inputs compiled in
      let trainer = replica [] in
      let sub = Sampler.sample ~seed:3 ~graph ~seeds:(batch_of 2) ~fanout:4 ~hops:2 () in
      let forward block =
        let exec = Block.stage block sub in
        Exec.run_plan ~free_temps:false exec compiled.Compiler.forward;
        let out = bits (Env.find exec.Exec.env inputs.Block.out_name).Env.tensor in
        Exec.free_temp_buffers exec compiled.Compiler.forward;
        out
      in
      let before = forward trainer in
      let exec = Block.stage trainer sub in
      ignore (Train.loss_and_grads ~label_rows:sub.Sampler.origin_node ~exec compiled ~labels);
      Train.sgd_step ~skip:(Train.fused_outs compiled.Compiler.weight_ops) ~exec ~lr:0.5 ();
      let after = forward trainer in
      let fresh =
        forward (replica (List.map (fun (name, w) -> (name, T.copy w)) (Block.weights trainer)))
      in
      check_bool (model ^ ": recomputed from the stepped weights") true (after = fresh);
      check_bool (model ^ ": the step moved the output") true (after <> before))
    [ ("rgcn", false, false); ("rgat", false, false); ("hgt", false, false) ]

(* No step allocates device memory.  The first step allocates the same
   few host tensors at one domain and at two (the weight-gradient stacks
   and fused weight products, which then stay bound in the replica's
   environment), and no later step allocates any, so no per-step,
   per-block or per-chunk host workspace — the edge-gradient pair rows and
   weight-gradient partials included — creeps in. *)
let test_minibatch_steady_state () =
  let graph, features, labels = minibatch_fixture () in
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          List.iter
            (fun (model, compact, fusion, host_allocs) ->
              let trainer =
                Minibatch.create ~graph ~features ~labels (compile_training model ~compact ~fusion)
              in
              let allocs () = Memory.alloc_count (Engine.memory (Minibatch.engine trainer)) in
              let warm = allocs () in
              for step = 0 to 20 do
                let before = T.allocation_count () in
                ignore (Minibatch.step trainer ~batch:(batch_of step) ());
                check_int
                  (Printf.sprintf "%s: host tensor allocations in step %d (%d domains)" model (step + 1)
                     domains)
                  (if step = 0 then host_allocs else 0)
                  (T.allocation_count () - before);
                check_int
                  (Printf.sprintf "%s: allocations after step %d (%d domains)" model (step + 1)
                     domains)
                  warm (allocs ())
              done)
            [ ("rgcn", false, false, 2); ("rgat", true, true, 6); ("hgt", false, false, 5) ]))
    [ 1; 2 ]

let rejects_with prefix f =
  match f () with
  | _ -> Alcotest.failf "expected a rejection starting %S" prefix
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "%S starts with %S" msg prefix)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)

let test_minibatch_rejects_bad_features () =
  let graph, _, labels = minibatch_fixture () in
  let compiled = compile_training "rgcn" ~compact:false ~fusion:false in
  List.iter
    (fun shape ->
      rejects_with "Minibatch.create: features must be 400 x 8" (fun () ->
          Minibatch.create ~graph ~features:(T.zeros shape) ~labels compiled))
    [ [| 400; 7 |]; [| 399; 8 |] ]

(* RGCN with its edge input renamed: a block cannot recompute it *)
let gated_rgcn () =
  let p = Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:3 () in
  let rec expr = function
    | Ir.Feature (Ir.Cur_edge, "norm") -> Ir.Feature (Ir.Cur_edge, "gate")
    | Ir.Binop (op, a, b) -> Ir.Binop (op, expr a, expr b)
    | Ir.Unop (op, a) -> Ir.Unop (op, expr a)
    | e -> e
  and stmt = function
    | Ir.For_each (space, body) -> Ir.For_each (space, List.map stmt body)
    | Ir.Accumulate (target, name, e) -> Ir.Accumulate (target, name, expr e)
    | s -> s
  in
  {
    p with
    Ir.decls =
      List.map
        (function Ir.Edge_input { dim; _ } -> Ir.Edge_input { name = "gate"; dim } | d -> d)
        p.Ir.decls;
    body = List.map stmt p.Ir.body;
  }

let test_minibatch_rejects_edge_input () =
  let graph, features, labels = minibatch_fixture () in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
      (gated_rgcn ())
  in
  rejects_with "Minibatch.create: unsupported edge input \"gate\"" (fun () ->
      Minibatch.create ~graph ~features ~labels compiled)

(* --- property tests --- *)

(* two distinct in-range seed nodes derived from one generated id *)
let distinct_seeds v = [| v; (v + 137) mod 400 |]

let prop_fanout_bound_per_hop =
  QCheck.Test.make ~name:"block in-degrees never exceed the fanout" ~count:40
    QCheck.(make Gen.(triple (int_range 0 399) (int_range 1 6) (int_range 1 3)))
    (fun (v, fanout, hops) ->
      let graph = Lazy.force parent in
      let block = Sampler.sample ~graph ~seeds:(distinct_seeds v) ~fanout ~hops () in
      (* a node joins the frontier at most once, so it draws in-edges in at
         most one hop: every in-degree of the block is bounded by fanout *)
      Array.for_all (fun d -> d <= fanout) (G.in_degrees block.Sampler.graph))

let prop_subgraph_valid =
  QCheck.Test.make ~name:"sampled subgraph upholds the Hetgraph invariants" ~count:40
    QCheck.(make Gen.(pair (int_range 0 399) (int_range 1 3)))
    (fun (v, hops) ->
      let graph = Lazy.force parent in
      let block = Sampler.sample ~graph ~seeds:(distinct_seeds v) ~fanout:4 ~hops () in
      let sub = block.Sampler.graph in
      let sorted a = Array.for_all (fun i -> a.(i) <= a.(i + 1))
          (Array.init (max 0 (Array.length a - 1)) (fun i -> i)) in
      sorted sub.G.node_type && sorted sub.G.etype
      && Array.for_all
           (fun i ->
             graph.G.node_type.(block.Sampler.origin_node.(sub.G.src.(i)))
             = sub.G.node_type.(sub.G.src.(i)))
           (Array.init sub.G.num_edges (fun i -> i)))

let prop_origin_ids_valid =
  QCheck.Test.make ~name:"origin_node/origin_edge are valid parent ids" ~count:40
    QCheck.(make Gen.(pair (int_range 0 399) (int_range 1 3)))
    (fun (v, hops) ->
      let graph = Lazy.force parent in
      let block = Sampler.sample ~graph ~seeds:(distinct_seeds v) ~fanout:5 ~hops () in
      Array.for_all (fun p -> p >= 0 && p < graph.G.num_nodes) block.Sampler.origin_node
      && Array.for_all (fun e -> e >= 0 && e < graph.G.num_edges) block.Sampler.origin_edge
      && Array.for_all
           (fun s -> s >= 0 && s < block.Sampler.graph.G.num_nodes)
           block.Sampler.seed_nodes)

let prop_sample_domain_invariant =
  QCheck.Test.make ~name:"sampling is identical across 1/2/4 domains" ~count:15
    QCheck.(make Gen.(pair (int_range 0 399) (int_range 1 3)))
    (fun (v, hops) ->
      let graph = Lazy.force parent in
      let run () =
        let b = Sampler.sample ~seed:9 ~graph ~seeds:(distinct_seeds v) ~fanout:3 ~hops () in
        (b.Sampler.origin_node, b.Sampler.origin_edge, b.Sampler.seed_nodes)
      in
      let reference = with_domains 1 run in
      List.for_all (fun d -> with_domains d run = reference) [ 2; 4 ])

let prop_block_edges_subset =
  QCheck.Test.make ~name:"sampled blocks are consistent subgraphs" ~count:30
    QCheck.(make Gen.(pair (int_range 0 399) (int_range 1 3)))
    (fun (seed_node, hops) ->
      let graph = Lazy.force parent in
      let block = Sampler.sample ~graph ~seeds:[| seed_node |] ~fanout:5 ~hops () in
      let sub = block.Sampler.graph in
      let ok = ref true in
      Array.iteri
        (fun i eid ->
          if
            graph.G.src.(eid) <> block.Sampler.origin_node.(sub.G.src.(i))
            || graph.G.dst.(eid) <> block.Sampler.origin_node.(sub.G.dst.(i))
          then ok := false)
        block.Sampler.origin_edge;
      !ok)

(* --- differential: flat-array sampler and induce == the oracle --- *)

module Oracle = Sampler_oracle
module Partition = Hector_graph.Partition
module Datasets = Hector_graph.Datasets

let random_graph seed =
  Gen.generate
    {
      Gen.name = "rand";
      num_ntypes = 1 + (seed mod 4);
      num_etypes = 4 + (seed mod 9);
      num_nodes = 60 + (seed * 37 mod 300);
      num_edges = 150 + (seed * 91 mod 1200);
      compaction_target = 0.3 +. (float_of_int (seed mod 5) *. 0.15);
      scale = 1.0;
      seed;
    }

let replicas =
  lazy
    [|
      Datasets.load ~seed:1 (Datasets.find "am");
      Datasets.load ~seed:1 (Datasets.find "fb15k");
    |]

(* graph 0-1: the AM and FB15k replicas; otherwise a random graph *)
let pick_graph g = if g < 2 then (Lazy.force replicas).(g) else random_graph g

(* Seed sets mixing random nodes, repeats, rows with no incoming edges and
   rows whose in-degree does not exceed the fanout; with [bad], a set may
   also hold an out-of-range id or be empty. *)
let seed_sets_of rng (graph : G.t) ~fanout ~bad =
  let n = graph.G.num_nodes in
  let deg = G.in_degrees graph in
  let pool pred = List.filter pred (List.init n Fun.id) |> Array.of_list in
  let zero = pool (fun v -> deg.(v) = 0) and small = pool (fun v -> deg.(v) <= fanout) in
  let one () =
    match Rng.int rng 6 with
    | 0 when Array.length zero > 0 -> Rng.choose rng zero
    | 1 when Array.length small > 0 -> Rng.choose rng small
    | 2 when bad -> if Rng.int rng 2 = 0 then -1 - Rng.int rng 3 else n + Rng.int rng 3
    | _ -> Rng.int rng n
  in
  Array.init (1 + Rng.int rng 4) (fun _ ->
      if bad && Rng.int rng 10 = 0 then [||]
      else
        let s = Array.init (1 + Rng.int rng 6) (fun _ -> one ()) in
        (* a repeat inside the set *)
        if Rng.int rng 3 = 0 then Array.append s [| s.(0) |] else s)

let prop_sampler_matches_oracle =
  QCheck.Test.make ~name:"flat sampler == list/Hashtbl oracle (blocks, maps, errors)"
    ~count:100
    QCheck.(
      make
        Gen.(
          map
            (fun (((g, seed), fanout), (hops, bad)) -> (g, seed, fanout, hops, bad))
            (pair
               (pair (pair (int_range 0 9) (int_range 0 1000)) (int_range 1 16))
               (pair (int_range 1 3) bool))))
    (fun (g, seed, fanout, hops, bad) ->
      let graph = pick_graph g in
      let rng = Rng.create (seed + (1000 * g)) in
      let seed_sets = seed_sets_of rng graph ~fanout ~bad in
      let csr = Hector_graph.Csr.incoming graph in
      let union =
        Sampler.sample_union_result ~seed ~csr ~graph ~seed_sets ~fanout ~hops ()
        = Oracle.sample_union_result ~seed ~csr ~graph ~seed_sets ~fanout ~hops ()
      in
      (* a single set with its duplicates, through [sample_result] *)
      let seeds = Array.concat (Array.to_list seed_sets) in
      let single =
        Sampler.sample_result ~seed ~graph ~seeds ~fanout ~hops ()
        = Oracle.sample_result ~seed ~graph ~seeds ~fanout ~hops ()
      in
      union && single)

(* A [j]-hop sample is the first [j] hops of a [k]-hop one with the same
   seed ([j <= k]): its edges are, in order, the [k]-hop block's in-edges
   of the nodes within [j - 1] in-hops of the seeds (the seeds and the
   first [j - 1] hop frontiers).  Served blocks rely on it: sampling only
   as deep as the program reads leaves every read edge in place. *)
let prop_hop_prefix =
  QCheck.Test.make ~name:"a j-hop sample is the first j hops of a k-hop one" ~count:100
    QCheck.(
      make
        Gen.(
          map
            (fun (((g, seed), fanout), (k, j)) -> (g, seed, fanout, k, 1 + (j mod k)))
            (pair
               (pair (pair (int_range 0 9) (int_range 0 1000)) (int_range 1 16))
               (pair (int_range 1 4) (int_range 0 3)))))
    (fun (g, seed, fanout, k, j) ->
      let graph = pick_graph g in
      let rng = Rng.create (seed + (1000 * g)) in
      let seeds = Array.concat (Array.to_list (seed_sets_of rng graph ~fanout ~bad:false)) in
      let sample hops = Sampler.sample ~seed ~graph ~seeds ~fanout ~hops () in
      let short = sample j and long = sample k in
      let b = long.Sampler.graph in
      (* [level.(v)]: in-hops from the nearest seed, up to [j - 1] *)
      let level = Array.make b.G.num_nodes max_int in
      Array.iter (fun s -> level.(s) <- 0) long.Sampler.seed_nodes;
      for l = 1 to j - 1 do
        for e = 0 to b.G.num_edges - 1 do
          if level.(b.G.dst.(e)) = l - 1 && level.(b.G.src.(e)) > l then level.(b.G.src.(e)) <- l
        done
      done;
      let prefix =
        List.filter_map
          (fun e -> if level.(b.G.dst.(e)) < j then Some long.Sampler.origin_edge.(e) else None)
          (List.init b.G.num_edges Fun.id)
      in
      prefix = Array.to_list short.Sampler.origin_edge)

let test_sampler_errors_match_oracle () =
  let graph = Lazy.force parent in
  let check label new_r old_r =
    Alcotest.(check (result pass string)) label
      (Result.map (fun _ -> ()) old_r) (Result.map (fun _ -> ()) new_r)
  in
  let union seed_sets fanout hops =
    check "sample_union"
      (Sampler.sample_union_result ~graph ~seed_sets ~fanout ~hops ())
      (Oracle.sample_union_result ~graph ~seed_sets ~fanout ~hops ())
  in
  union [||] 2 1;
  union [| [| 1 |]; [||] |] 2 1;
  union [| [| 1 |]; [| 3; -1 |]; [| 400 |] |] 2 1;
  union [| [| 1 |]; [| 3; 400 |]; [| -1 |] |] 2 1;
  union [| [| 1 |] |] 0 1;
  union [| [| 1 |] |] 2 0;
  check "sample" (Sampler.sample_result ~graph ~seeds:[||] ~fanout:2 ~hops:1 ())
    (Oracle.sample_result ~graph ~seeds:[||] ~fanout:2 ~hops:1 ())

(* Random member sets, valid or not: [induce_result] agrees with the
   oracle on every graph array, origin map and error string.  Out-of-range
   edge ids are left out: the oracle's comparison sort indexes the edge
   type column with them before its own range check can run. *)
let prop_induce_matches_oracle =
  QCheck.Test.make ~name:"flat induce == tuple-sort/Hashtbl oracle" ~count:80
    QCheck.(make Gen.(triple (int_range 2 9) (int_range 0 1000) (int_range 0 3)))
    (fun (g, seed, flavour) ->
      let graph = pick_graph g in
      let rng = Rng.create seed in
      let n = graph.G.num_nodes in
      let nodes = Array.init (1 + Rng.int rng 40) (fun _ -> Rng.int rng n) in
      (* distinct members, shuffled *)
      let nodes = List.sort_uniq compare (Array.to_list nodes) |> Array.of_list in
      Rng.shuffle rng nodes;
      let member = Array.make n false in
      Array.iter (fun v -> member.(v) <- true) nodes;
      let inner =
        List.filter
          (fun e -> member.(graph.G.src.(e)) && member.(graph.G.dst.(e)))
          (List.init graph.G.num_edges Fun.id)
        |> Array.of_list
      in
      Rng.shuffle rng inner;
      let nodes, edges =
        match flavour with
        | 0 -> (nodes, inner)
        | 1 -> (Array.append nodes [| nodes.(0) |], inner) (* duplicate node *)
        | 2 -> (Array.append nodes [| n + Rng.int rng 5 |], inner) (* out of range *)
        | _ -> (nodes, Array.append inner [| Rng.int rng graph.G.num_edges |])
        (* possibly a non-member endpoint *)
      in
      G.induce_result graph ~nodes ~edges = Oracle.induce_result graph ~nodes ~edges)

let test_induce_names_bad_edge () =
  let graph = Lazy.force parent in
  let nodes = Array.init graph.G.num_nodes Fun.id in
  let expect = Error "Hetgraph.induce: edge 1600 out of range (graph has 1600 edges)" in
  check_bool "named edge error" true
    (Result.map (fun _ -> ()) (G.induce_result graph ~nodes ~edges:[| 0; 1600; 1 |]) = expect)

(* The partitioner's induced parts equal the oracle's [induce] over the
   same member lists (owned nodes plus halo sources, dst-owned edges in
   parent order). *)
let prop_partition_matches_oracle =
  QCheck.Test.make ~name:"Partition parts == oracle induce over the same members" ~count:12
    QCheck.(make Gen.(pair (int_range 0 9) (int_range 1 4)))
    (fun (g, parts) ->
      let graph = pick_graph g in
      let pt = Partition.partition ~parts graph in
      Array.for_all Fun.id
        (Array.init parts (fun p ->
             let m = pt.Partition.members.(p) in
             let edges =
               List.filter
                 (fun e -> pt.Partition.owner.(graph.G.dst.(e)) = p)
                 (List.init graph.G.num_edges Fun.id)
             in
             let member = Array.make graph.G.num_nodes false in
             let nodes = ref [] in
             let add v =
               if not member.(v) then begin
                 member.(v) <- true;
                 nodes := v :: !nodes
               end
             in
             Array.iteri (fun v o -> if o = p then add v) pt.Partition.owner;
             List.iter (fun e -> add graph.G.src.(e)) edges;
             match
               Oracle.induce_result
                 ~name:(Printf.sprintf "%s_part%d" graph.G.name p)
                 graph ~nodes:(Array.of_list !nodes) ~edges:(Array.of_list edges)
             with
             | Error _ -> false
             | Ok o ->
                 o.G.sub = m.Partition.sub
                 && o.G.origin_node = m.Partition.origin_node
                 && o.G.origin_edge = m.Partition.origin_edge)))

(* A batch the sampler rejects is not a step: the next good step samples
   with the seed it would have had, so the trainer stays bit-identical to
   one that never saw the rejected batch.  [train_epochs] names a batch
   size below 1. *)
let test_minibatch_rejected_batch () =
  let graph, features, labels = minibatch_fixture () in
  let compiled = compile_training "rgcn" ~compact:false ~fusion:false in
  let a = Minibatch.create ~seed:4 ~graph ~features ~labels compiled
  and b = Minibatch.create ~seed:4 ~graph ~features ~labels compiled in
  ignore (Minibatch.step a ~batch:(batch_of 1) ());
  ignore (Minibatch.step b ~batch:(batch_of 1) ());
  List.iter
    (fun bad ->
      match Minibatch.step a ~batch:bad () with
      | _ -> Alcotest.fail "a rejected batch was trained on"
      | exception Invalid_argument _ -> ())
    [ [||]; [| graph.G.num_nodes |]; [| -1 |] ];
  let ra = Minibatch.step a ~batch:(batch_of 2) () and rb = Minibatch.step b ~batch:(batch_of 2) () in
  check_int "same block" rb.Minibatch.block_nodes ra.Minibatch.block_nodes;
  check_bool "same loss bits" true
    (Int64.bits_of_float ra.Minibatch.loss = Int64.bits_of_float rb.Minibatch.loss);
  same_weights "after the rejected batches" (Minibatch.weights b) (Minibatch.weights a);
  List.iter
    (fun batch_size ->
      match Minibatch.train_epochs a ~batch_size ~epochs:1 () with
      | _ -> Alcotest.failf "batch_size %d accepted" batch_size
      | exception Invalid_argument m ->
          check_bool
            (Printf.sprintf "batch_size %d named (%s)" batch_size m)
            true
            (String.starts_with ~prefix:"Minibatch.train_epochs: batch_size" m))
    [ 0; -3 ]

(* --- one executor per block replica ---------------------------------- *)

let float_bits x = Int64.bits_of_float x

(* A block replica's engine keeps no timeline, so launches are compared
   as the engine's statistics: the clock, per kernel name its launch
   count, simulated ms, flops and bytes, and per provenance op its launch
   count and ms, every float by its bits. *)
let launch_ledger engine =
  let module Stats = Hector_gpu.Stats in
  let st = Engine.stats engine in
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  ( float_bits (Engine.elapsed_ms engine),
    List.map
      (fun (n, (e : Stats.entry)) ->
        (n, e.Stats.launches, float_bits e.Stats.time_ms, float_bits e.Stats.flops, float_bits e.Stats.bytes))
      (by_name (Stats.by_kernel st)),
    List.map
      (fun (n, (e : Stats.entry)) -> (n, e.Stats.launches, float_bits e.Stats.time_ms))
      (by_name (Stats.by_op st)) )

(* What a step leaves behind, bit for bit: the output and, for training,
   the loss and every weight gradient by name. *)
let step_bits env ~out_name ~loss =
  let module Env = Hector_runtime.Env in
  ( bits (Env.find env out_name).Env.tensor,
    Option.map float_bits loss,
    List.map (fun (n, g) -> (n, bits g))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) (Env.weight_grads env)) )

(* Every compiled buffer is either fully written by its first step or
   zeroed by a memset, so an inference forward whose accumulators lose
   their memsets is the one that reads what an arena's first bind
   zeroes: its non-temporary output accumulates onto whatever its view
   held, which is zero only at the view's first bind after a cut. *)
let first_bind_zeroed (c : Compiler.compiled) =
  let module Plan = Hector_core.Plan in
  let fwd = c.Compiler.forward in
  {
    c with
    Compiler.forward =
      { fwd with Plan.buffers = List.map (fun b -> { b with Plan.zero_init = false }) fwd.Plan.buffers };
  }

let rebind_configs =
  lazy
    (List.concat_map
       (fun model ->
         List.concat_map
           (fun (layout, compact, fusion) ->
             let compile training =
               Compiler.compile
                 ~options:(Compiler.options_of_flags ~training ~compact ~fusion ())
                 (Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim:3 ())
             in
             let label what = Printf.sprintf "%s %s %s" model layout what in
             [
               (label "infer", compile false);
               (label "infer, first-bind zeroing", first_bind_zeroed (compile false));
               (label "train", compile true);
             ])
           [ ("U", false, false); ("C+F", true, true) ])
       [ "rgcn"; "rgat"; "hgt" ])

(* One block replica serves a sequence of sampled blocks — growing,
   shrinking, one the whole parent — through its one executor, rebound to
   each block.  After each, the rebound executor must hold what a session
   built fresh on that block, with the replica's current weights and the
   same staged inputs, computes: the same output, loss and weight
   gradient bits and the same launches; and the replica's device must
   allocate nothing after warmup. *)
let rebound_matches_fresh ~domains blocks =
  let module Block = Hector_runtime.Block in
  let module Exec = Hector_runtime.Exec in
  let module Train = Hector_runtime.Train in
  let graph, features, labels = minibatch_fixture () in
  with_domains domains (fun () ->
      List.iter
        (fun (label, (compiled : Compiler.compiled)) ->
          let training = compiled.Compiler.backward <> None in
          let program = compiled.Compiler.forward.Hector_core.Plan.program in
          let inputs = Block.inputs ~caller:"test" ~features ~graph program in
          let replica = Block.create ~features ~origin:"test" ~seed:6 ~graph inputs compiled in
          let engine = Block.engine replica and warm_exec = Block.exec replica in
          let warm = Memory.alloc_count (Engine.memory engine) in
          let skip = Train.fused_outs compiled.Compiler.weight_ops in
          let step (exec : Exec.t) (sub : Sampler.subgraph) =
            if training then begin
              let loss =
                Train.loss_and_grads ~label_rows:sub.Sampler.origin_node ~exec compiled ~labels
              in
              let got = step_bits exec.Exec.env ~out_name:inputs.Block.out_name ~loss:(Some loss) in
              Train.sgd_step ~skip ~exec ~lr:0.1 ();
              got
            end
            else begin
              Exec.run_plan exec compiled.Compiler.forward;
              step_bits exec.Exec.env ~out_name:inputs.Block.out_name ~loss:None
            end
          in
          List.iteri
            (fun i (seeds, fanout, hops, sample_seed) ->
              let sub = Sampler.sample ~seed:sample_seed ~graph ~seeds ~fanout ~hops () in
              let block = sub.Sampler.graph in
              let what = Printf.sprintf "%s, %d domains, block %d (%d nodes)" label domains i block.G.num_nodes in
              let fresh =
                Session.create
                  ~config:
                    {
                      Session.Config.default with
                      engine = Some (Engine.create ~scale:1.0 ());
                      node_inputs =
                        [ (inputs.Block.feature_name, T.gather_rows features sub.Sampler.origin_node) ];
                      edge_inputs = List.map (fun n -> (n, Session.rgcn_norm block)) inputs.Block.edge_inputs;
                      weights = List.map (fun (n, w) -> (n, T.copy w)) (Block.weights replica);
                    }
                  ~graph:block compiled
              in
              let exec = Block.stage replica sub in
              check_bool (what ^ ": the replica's one executor") true (exec == warm_exec);
              Engine.reset_clock engine;
              let got = step exec sub in
              let want = step (Session.exec fresh) sub in
              check_bool (what ^ ": output, loss and gradient bits") true (got = want);
              check_bool (what ^ ": launches") true
                (launch_ledger engine = launch_ledger (Session.engine fresh));
              check_int (what ^ ": no device allocation after warmup") warm
                (Memory.alloc_count (Engine.memory engine)))
            blocks)
        (Lazy.force rebind_configs));
  true

let prop_rebound_matches_fresh =
  let n = 400 in
  let partial =
    QCheck.Gen.(
      map
        (fun (k, start, fanout, hops, sample_seed) ->
          (Array.init k (fun i -> (start + (i * 7)) mod n), fanout, hops, sample_seed))
        (tup5 (int_range 1 60) (int_bound (n - 1)) (int_range 1 4) (int_range 1 2) small_nat))
  in
  QCheck.Test.make ~name:"a rebound block executor == a fresh session on each block" ~count:2
    ~long_factor:5
    QCheck.(
      make
        ~print:(fun (blocks, at) ->
          Printf.sprintf "whole parent at %d, blocks %s" at
            (String.concat "; "
               (List.map (fun (s, f, h, r) -> Printf.sprintf "%d seeds/f%d/h%d/s%d" (Array.length s) f h r) blocks)))
        Gen.(pair (list_size (int_range 2 4) partial) (int_bound 4)))
    (fun (blocks, at) ->
      let graph = Lazy.force parent in
      let whole = (Array.init n (fun i -> i), Array.fold_left max 1 (G.in_degrees graph), 1, 0) in
      let at = min at (List.length blocks) in
      let blocks = List.filteri (fun i _ -> i < at) blocks @ (whole :: List.filteri (fun i _ -> i >= at) blocks) in
      List.for_all (fun domains -> rebound_matches_fresh ~domains blocks) [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "block is a valid graph" `Quick test_block_is_valid_graph;
    Alcotest.test_case "seeds mapped" `Quick test_seeds_mapped;
    Alcotest.test_case "fanout respected" `Quick test_fanout_respected;
    Alcotest.test_case "hops grow the block" `Quick test_hops_grow_block;
    Alcotest.test_case "sampler validation" `Quick test_sampler_validation;
    Alcotest.test_case "sampler deterministic" `Quick test_sampler_deterministic;
    Alcotest.test_case "minibatch step report" `Quick test_minibatch_step_report;
    Alcotest.test_case "minibatch learns" `Quick test_minibatch_learns;
    Alcotest.test_case "minibatch requires training" `Quick test_minibatch_requires_training;
    Alcotest.test_case "a rejected minibatch moves no later step" `Quick test_minibatch_rejected_batch;
    Alcotest.test_case "sample_union maps each request" `Quick test_sample_union_maps_each_request;
    Alcotest.test_case "minibatch same seed, same losses" `Quick
      test_minibatch_same_seed_same_losses;
    Alcotest.test_case "minibatch == per-step-session oracle, bitwise" `Quick
      test_minibatch_matches_oracle;
    Alcotest.test_case "minibatch starts from the parent session's weights" `Quick
      test_minibatch_initial_weights;
    Alcotest.test_case "training block recomputes every row after SGD" `Quick
      test_training_block_recomputes;
    Alcotest.test_case "minibatch steady state allocates nothing" `Quick
      test_minibatch_steady_state;
    Alcotest.test_case "minibatch create rejects mis-shaped features" `Quick
      test_minibatch_rejects_bad_features;
    Alcotest.test_case "minibatch create rejects a non-norm edge input" `Quick
      test_minibatch_rejects_edge_input;
    QCheck_alcotest.to_alcotest prop_block_edges_subset;
    QCheck_alcotest.to_alcotest prop_fanout_bound_per_hop;
    QCheck_alcotest.to_alcotest prop_subgraph_valid;
    QCheck_alcotest.to_alcotest prop_origin_ids_valid;
    QCheck_alcotest.to_alcotest prop_sample_domain_invariant;
    Alcotest.test_case "sampler errors match the oracle" `Quick
      test_sampler_errors_match_oracle;
    Alcotest.test_case "induce names an out-of-range edge" `Quick test_induce_names_bad_edge;
    QCheck_alcotest.to_alcotest prop_sampler_matches_oracle;
    QCheck_alcotest.to_alcotest prop_induce_matches_oracle;
    QCheck_alcotest.to_alcotest prop_partition_matches_oracle;
    QCheck_alcotest.to_alcotest prop_hop_prefix;
    QCheck_alcotest.to_alcotest prop_rebound_matches_fresh;
    QCheck_alcotest.to_alcotest prop_minibatch_loss_is_the_seeds;
  ]
