(* Tests for neighborhood sampling and minibatch training (§6). *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Sampler = Hector_graph.Sampler
module Compiler = Hector_core.Compiler
module Minibatch = Hector_runtime.Minibatch

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
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
      (Hector_models.Model_defs.rgcn ~in_dim:8 ~out_dim:3 ())
  in
  let run seed =
    let trainer = Minibatch.create ~seed ~graph ~features ~labels compiled in
    List.init 3 (fun _ ->
        Minibatch.train_epochs trainer ~lr:0.1 ~batch_size:100 ~epochs:1 ())
  in
  let a = run 7 and b = run 7 in
  check_bool "same seed, identical losses" true (a = b);
  List.iter (fun l -> check_bool "finite" true (Float.is_finite l)) a

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
      let with_domains n f =
        Hector_tensor.Domain_pool.set_num_domains (Some n);
        Fun.protect ~finally:(fun () -> Hector_tensor.Domain_pool.set_num_domains None) f
      in
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
    Alcotest.test_case "sample_union maps each request" `Quick test_sample_union_maps_each_request;
    Alcotest.test_case "minibatch same seed, same losses" `Quick
      test_minibatch_same_seed_same_losses;
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
  ]
