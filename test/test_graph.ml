(* Unit and property tests for the heterogeneous-graph substrate. *)

module G = Hector_graph.Hetgraph
module Mg = Hector_graph.Metagraph
module Csr = Hector_graph.Csr
module Cm = Hector_graph.Compact_map
module Gen = Hector_graph.Generator
module Ds = Hector_graph.Datasets

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small fixed citation-style graph used across tests:
   node types: 0 = author (nodes 0-1), 1 = paper (nodes 2-4)
   relations:  0 = writes (author->paper), 1 = cites (paper->paper) *)
let tiny () =
  let mg = Mg.create ~num_ntypes:2 ~relations:[| (0, 1); (1, 1) |] in
  G.create ~name:"tiny" ~metagraph:mg
    ~node_type:[| 0; 0; 1; 1; 1 |]
    ~edges:[| (2, 3, 1); (0, 2, 0); (0, 3, 0); (1, 3, 0); (3, 4, 1); (2, 4, 1); (0, 2, 0) |]
    ()

let test_metagraph_basics () =
  let mg = Mg.create ~num_ntypes:3 ~relations:[| (0, 1); (2, 1); (1, 0) |] in
  check_int "ntypes" 3 (Mg.num_ntypes mg);
  check_int "etypes" 3 (Mg.num_etypes mg);
  check_int "src" 2 (Mg.src_ntype mg 1);
  check_int "dst" 0 (Mg.dst_ntype mg 2);
  Alcotest.(check (list int)) "with dst 1" [ 0; 1 ] (Mg.etypes_with_dst mg 1)

let test_metagraph_invalid () =
  check_bool "bad relation raises" true
    (try
       ignore (Mg.create ~num_ntypes:2 ~relations:[| (0, 2) |]);
       false
     with Invalid_argument _ -> true)

let test_create_sorts_edges () =
  let g = tiny () in
  check_int "edges" 7 g.G.num_edges;
  (* all etype-0 edges first *)
  Alcotest.(check (array int)) "etype sorted" [| 0; 0; 0; 0; 1; 1; 1 |] g.G.etype;
  (* every edge respects the metagraph *)
  Array.iteri
    (fun i e ->
      check_int "src type" (Mg.src_ntype g.G.metagraph e) g.G.node_type.(g.G.src.(i));
      check_int "dst type" (Mg.dst_ntype g.G.metagraph e) g.G.node_type.(g.G.dst.(i)))
    g.G.etype

let test_create_rejects_violations () =
  let mg = Mg.create ~num_ntypes:2 ~relations:[| (0, 1) |] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "unsorted node types" true
    (raises (fun () -> ignore (G.create ~metagraph:mg ~node_type:[| 1; 0 |] ~edges:[||] ())));
  check_bool "edge type out of range" true
    (raises (fun () ->
         ignore (G.create ~metagraph:mg ~node_type:[| 0; 1 |] ~edges:[| (0, 1, 5) |] ())));
  check_bool "endpoint out of range" true
    (raises (fun () ->
         ignore (G.create ~metagraph:mg ~node_type:[| 0; 1 |] ~edges:[| (0, 7, 0) |] ())));
  check_bool "metagraph violation" true
    (raises (fun () ->
         ignore (G.create ~metagraph:mg ~node_type:[| 0; 1 |] ~edges:[| (1, 1, 0) |] ())));
  check_bool "scale below one" true
    (raises (fun () ->
         ignore (G.create ~scale:0.5 ~metagraph:mg ~node_type:[| 0; 1 |] ~edges:[||] ())))

let test_type_ranges () =
  let g = tiny () in
  Alcotest.(check (pair int int)) "authors" (0, 2) (G.nodes_of_type g 0);
  Alcotest.(check (pair int int)) "papers" (2, 3) (G.nodes_of_type g 1);
  Alcotest.(check (pair int int)) "writes" (0, 4) (G.edges_of_type g 0);
  Alcotest.(check (pair int int)) "cites" (4, 3) (G.edges_of_type g 1)

let test_degrees () =
  let g = tiny () in
  let din = G.in_degrees g and dout = G.out_degrees g in
  check_int "in deg node3" 3 din.(3);
  check_int "in deg node2" 2 din.(2);
  check_int "out deg node0" 3 dout.(0);
  check_int "out deg node4" 0 dout.(4);
  (* per-relation in-degrees, as RGCN's 1/c_{v,r} normalizer counts them:
     edges 0-3 are writes, 4-6 cites (create groups by type) *)
  let norm = Hector_tensor.Tensor.to_flat_array (Hector_runtime.Session.rgcn_norm g) in
  Alcotest.(check (array (float 0.0)))
    "1 / in-degree by relation" [| 0.5; 0.5; 0.5; 0.5; 1.0; 0.5; 0.5 |] norm

let test_logical_scaling () =
  let mg = Mg.create ~num_ntypes:1 ~relations:[| (0, 0) |] in
  let g =
    G.create ~scale:100.0 ~metagraph:mg ~node_type:[| 0; 0 |] ~edges:[| (0, 1, 0) |] ()
  in
  check_int "logical nodes" 200 (G.logical_nodes g);
  check_int "logical edges" 100 (G.logical_edges g);
  check_bool "density" true (Float.abs (G.density g -. (100.0 /. (200.0 *. 200.0))) < 1e-12)

let test_csr_incoming_matches_coo () =
  let g = tiny () in
  let csr = Csr.incoming g in
  check_int "total" g.G.num_edges csr.Csr.row_ptr.(g.G.num_nodes);
  (* every (dst row, src col, eid) triple must match the COO arrays *)
  for v = 0 to g.G.num_nodes - 1 do
    List.iter
      (fun (nbr, eid) ->
        check_int "dst" v g.G.dst.(eid);
        check_int "src" nbr g.G.src.(eid))
      (Sampler_oracle.neighbors csr v)
  done;
  check_int "degree node3" 3 (Csr.degree csr 3)

let test_csr_outgoing_matches_coo () =
  let g = tiny () in
  let csr = Csr.outgoing g in
  for v = 0 to g.G.num_nodes - 1 do
    List.iter
      (fun (nbr, eid) ->
        check_int "src" v g.G.src.(eid);
        check_int "dst" nbr g.G.dst.(eid))
      (Sampler_oracle.neighbors csr v)
  done;
  check_int "degree node0" 3 (Csr.degree csr 0)

let test_csr_owner_of_index () =
  let g = tiny () in
  let csr = Csr.incoming g in
  for k = 0 to Array.length csr.Csr.col - 1 do
    let owner = Csr.owner_of_index csr k in
    check_bool "row_ptr brackets k" true
      (csr.Csr.row_ptr.(owner) <= k && k < csr.Csr.row_ptr.(owner + 1))
  done

let test_compact_map_tiny () =
  let g = tiny () in
  let cm = Cm.build g in
  (* writes: sources 0,0,1,0 -> 2 unique; cites: 2,3,2 -> 2 unique *)
  check_int "pairs" 4 cm.Cm.num_pairs;
  Alcotest.(check (pair int int)) "writes range" (0, 2) (Cm.pairs_of_etype cm 0);
  Alcotest.(check (pair int int)) "cites range" (2, 2) (Cm.pairs_of_etype cm 1);
  (* same (etype, src) -> same row; different -> different *)
  for i = 0 to g.G.num_edges - 1 do
    for j = 0 to g.G.num_edges - 1 do
      let same_pair = g.G.etype.(i) = g.G.etype.(j) && g.G.src.(i) = g.G.src.(j) in
      check_bool "pair consistency" same_pair
        (cm.Cm.row_of_edge.(i) = cm.Cm.row_of_edge.(j))
    done
  done;
  (* pair_src maps back *)
  for i = 0 to g.G.num_edges - 1 do
    check_int "pair_src" g.G.src.(i) cm.Cm.pair_src.(cm.Cm.row_of_edge.(i));
    check_int "etype_of_pair" g.G.etype.(i) (Cm.etype_of_pair cm cm.Cm.row_of_edge.(i))
  done;
  check_bool "ratio" true (Float.abs (Cm.ratio g cm -. (4.0 /. 7.0)) < 1e-12)

let test_generator_counts () =
  let spec =
    {
      Gen.name = "synth";
      num_ntypes = 4;
      num_etypes = 12;
      num_nodes = 500;
      num_edges = 2000;
      compaction_target = 0.5;
      scale = 3.0;
      seed = 99;
    }
  in
  let g = Gen.generate spec in
  check_int "nodes" 500 g.G.num_nodes;
  check_int "edges" 2000 g.G.num_edges;
  check_int "ntypes" 4 (G.num_ntypes g);
  check_int "etypes" 12 (G.num_etypes g);
  (* every edge type populated *)
  for e = 0 to 11 do
    let _, count = G.edges_of_type g e in
    check_bool "etype populated" true (count >= 1)
  done;
  (* every node type populated *)
  for t = 0 to 3 do
    let _, count = G.nodes_of_type g t in
    check_bool "ntype populated" true (count >= 1)
  done

let test_generator_compaction_tracks_target () =
  List.iter
    (fun target ->
      let g =
        Gen.generate
          {
            Gen.name = "synth";
            num_ntypes = 3;
            num_etypes = 20;
            num_nodes = 2000;
            num_edges = 6000;
            compaction_target = target;
            scale = 1.0;
            seed = 5;
          }
      in
      let cm = Cm.build g in
      let achieved = Cm.ratio g cm in
      check_bool
        (Printf.sprintf "target %.2f achieved %.3f" target achieved)
        true
        (Float.abs (achieved -. target) < 0.12))
    [ 0.26; 0.5; 0.75 ]

let test_generator_deterministic () =
  let spec =
    {
      Gen.name = "synth";
      num_ntypes = 3;
      num_etypes = 8;
      num_nodes = 200;
      num_edges = 700;
      compaction_target = 0.4;
      scale = 1.0;
      seed = 42;
    }
  in
  let g1 = Gen.generate spec and g2 = Gen.generate spec in
  Alcotest.(check (array int)) "src" g1.G.src g2.G.src;
  Alcotest.(check (array int)) "dst" g1.G.dst g2.G.dst;
  Alcotest.(check (array int)) "etype" g1.G.etype g2.G.etype;
  let g3 = Gen.generate { spec with seed = 43 } in
  check_bool "different seed differs" true (g1.G.src <> g3.G.src || g1.G.dst <> g3.G.dst)

let test_generator_validation () =
  let base =
    {
      Gen.name = "x";
      num_ntypes = 3;
      num_etypes = 8;
      num_nodes = 200;
      num_edges = 700;
      compaction_target = 0.4;
      scale = 1.0;
      seed = 1;
    }
  in
  let raises spec = try ignore (Gen.generate spec); false with Invalid_argument _ -> true in
  check_bool "too few nodes" true (raises { base with num_nodes = 2 });
  check_bool "too few edges" true (raises { base with num_edges = 4 });
  check_bool "bad target" true (raises { base with compaction_target = 0.0 });
  check_bool "bad target >1" true (raises { base with compaction_target = 1.5 })

let test_datasets_table4 () =
  check_int "eight datasets" 8 (List.length Ds.all);
  let aifb = Ds.find "aifb" in
  check_int "aifb ntypes" 7 aifb.Ds.num_ntypes;
  check_int "aifb etypes" 104 aifb.Ds.num_etypes;
  check_int "aifb nodes" 7262 aifb.Ds.logical_nodes;
  let mag = Ds.find "mag" in
  check_int "mag etypes" 4 mag.Ds.num_etypes;
  check_int "mag edges" 21_110_000 mag.Ds.logical_edges;
  check_bool "unknown raises" true
    (try
       ignore (Ds.find "nope");
       false
     with Invalid_argument _ -> true)

let test_datasets_load_scales () =
  let info = Ds.find "am" in
  let g = Ds.load ~max_nodes:1000 ~max_edges:3000 info in
  check_bool "physical bounded" true (g.G.num_nodes <= 1100 && g.G.num_edges <= 3300);
  (* logical counts recovered within rounding *)
  let rel_err a b = Float.abs (float_of_int a -. float_of_int b) /. float_of_int b in
  check_bool "logical nodes" true (rel_err (G.logical_nodes g) info.Ds.logical_nodes < 0.05);
  check_bool "logical edges" true (rel_err (G.logical_edges g) info.Ds.logical_edges < 0.05)

let test_datasets_small_full_size () =
  let info = Ds.find "aifb" in
  let g = Ds.load ~max_nodes:10_000 ~max_edges:50_000 info in
  check_int "full nodes" 7262 g.G.num_nodes;
  check_int "full edges" 48_810 g.G.num_edges;
  check_bool "scale 1" true (g.G.scale = 1.0)

let test_dataset_compaction_targets () =
  (* the two ratios quoted in §4.4 must be reproduced by the replicas *)
  List.iter
    (fun (name, expected) ->
      let g = Ds.load ~max_nodes:4000 ~max_edges:12_000 (Ds.find name) in
      let achieved = Cm.ratio g (Cm.build g) in
      check_bool
        (Printf.sprintf "%s ratio %.3f vs %.2f" name achieved expected)
        true
        (Float.abs (achieved -. expected) < 0.12))
    [ ("am", 0.57); ("fb15k", 0.26) ]

let test_datasets_reject_bad_caps () =
  let info = Ds.find "aifb" in
  let rejects what value load =
    match load () with
    | _ -> Alcotest.failf "%s = %d accepted" what value
    | exception Invalid_argument msg ->
        Alcotest.(check string) what
          (Printf.sprintf "Datasets.load: %s must be >= 1 (got %d)" what value)
          msg
  in
  rejects "max_edges" 0 (fun () -> Ds.load ~max_edges:0 info);
  rejects "max_edges" (-5) (fun () -> Ds.load ~max_edges:(-5) info);
  rejects "max_nodes" 0 (fun () -> Ds.load ~max_nodes:0 info);
  rejects "max_nodes" (-3) (fun () -> Ds.load ~max_nodes:(-3) info);
  check_int "a cap of 1 is accepted" 104 (G.num_etypes (Ds.load ~max_nodes:1 ~max_edges:1 info))

(* Everything a generated graph is made of, field by field. *)
let same_graph (a : G.t) (b : G.t) =
  let mg_rel (g : G.t) =
    let mg = g.G.metagraph in
    Array.init (Mg.num_etypes mg) (fun e -> (Mg.src_ntype mg e, Mg.dst_ntype mg e))
  in
  String.equal a.G.name b.G.name
  && Int64.equal (Int64.bits_of_float a.G.scale) (Int64.bits_of_float b.G.scale)
  && Mg.num_ntypes a.G.metagraph = Mg.num_ntypes b.G.metagraph
  && mg_rel a = mg_rel b
  && a.G.num_nodes = b.G.num_nodes
  && a.G.num_edges = b.G.num_edges
  && a.G.node_type = b.G.node_type
  && a.G.src = b.G.src
  && a.G.dst = b.G.dst
  && a.G.etype = b.G.etype

let test_datasets_match_oracle () =
  (* default caps, the CLI's, the bench harness's and the tests' *)
  List.iter
    (fun (max_nodes, max_edges) ->
      List.iter
        (fun (info : Ds.info) ->
          check_bool
            (Printf.sprintf "%s at %d/%d" info.Ds.name max_nodes max_edges)
            true
            (same_graph (Ds.load ~max_nodes ~max_edges info)
               (Gen_oracle.load ~max_nodes ~max_edges info)))
        Ds.all)
    [ (3000, 9000); (3000, 6000); (2000, 6000); (500, 1500) ]

(* MD5 of [same_graph]'s fields, recorded from the hashtable-and-scan
   generator: pins the replicas even if the oracle itself drifts. *)
let graph_digest (g : G.t) =
  let b = Buffer.create 65536 in
  let ints a =
    Array.iter
      (fun x ->
        Buffer.add_string b (string_of_int x);
        Buffer.add_char b ',')
      a;
    Buffer.add_char b ';'
  in
  let mg = g.G.metagraph in
  Buffer.add_string b g.G.name;
  Buffer.add_char b ';';
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float g.G.scale));
  Buffer.add_char b ';';
  ints [| Mg.num_ntypes mg |];
  ints (Array.init (Mg.num_etypes mg) (Mg.src_ntype mg));
  ints (Array.init (Mg.num_etypes mg) (Mg.dst_ntype mg));
  ints g.G.node_type;
  ints g.G.src;
  ints g.G.dst;
  ints g.G.etype;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_digests =
  [
    ("aifb", 1, "f16837918de574b831b8c8f1360066f9");
    ("mutag", 1, "dbbb25e44c6683d944376a5b1a2640e6");
    ("bgs", 1, "cc4cf91ce93210282d5741793bc722cc");
    ("am", 1, "ff728ed04869e43487cf2f7f1814cc81");
    ("mag", 1, "24e813394897d427b0689672aa24ef23");
    ("wikikg2", 1, "95e10b896d377b5b69e110a6cbf9ad70");
    ("fb15k", 1, "ece206cbe197aebb046ecc5f8e317836");
    ("biokg", 1, "69c268395569c78ccbc0b0cb59201d32");
    ("aifb", 2, "ea60009bd5576f476a7c246290d362b0");
    ("mutag", 2, "7aff1a072274f3c56251047f8208b6e1");
    ("bgs", 2, "abbb7af73bca6e8d83f19157c4a8114d");
    ("am", 2, "a5c932d42ee9284dfdcccfcf5e5f1c78");
    ("mag", 2, "df9cb65afd9a1425f2696d54f5df4e3e");
    ("wikikg2", 2, "7d89c3042b9d02563d110191ca201063");
    ("fb15k", 2, "3a22cad5850f5d1d08a082c0cada3cb7");
    ("biokg", 2, "55e49f992070a87d78e5247d54c1b34f");
    ("aifb", 3, "4695464e7908ac413a9881174d92ca20");
    ("mutag", 3, "e06a9460bbacc5094595bf29b877a721");
    ("bgs", 3, "17516173080a9294d91f76f19671b598");
    ("am", 3, "8fa2c8408bd73c47dce43ba828b0667b");
    ("mag", 3, "33ed1956584a3dd5297188f4b8b744cb");
    ("wikikg2", 3, "49b74e7deae2148fcc471423eb48c460");
    ("fb15k", 3, "968033a14e4482b7fa3f456ae6ad3cd7");
    ("biokg", 3, "7a5bc33299736f1f3d0152152ee6e456");
  ]

let test_datasets_golden_digests () =
  List.iter
    (fun (name, seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d" name seed)
        expected
        (graph_digest (Ds.load ~seed (Ds.find name))))
    golden_digests

(* --- property tests --- *)

let graph_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* num_ntypes = int_range 1 5 in
    let* num_etypes = int_range 1 12 in
    let* num_nodes = int_range num_ntypes 300 in
    let* num_edges = int_range num_etypes 900 in
    let* target_pct = int_range 10 100 in
    return
      (Gen.generate
         {
           Gen.name = "prop";
           num_ntypes;
           num_etypes;
           num_nodes;
           num_edges;
           compaction_target = float_of_int target_pct /. 100.0;
           scale = 1.0;
           seed;
         }))

let arb_graph = QCheck.make graph_gen ~print:(fun g -> Format.asprintf "%a" G.pp g)

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"CSR incoming covers every COO edge exactly once" ~count:50 arb_graph
    (fun g ->
      let csr = Csr.incoming g in
      let seen = Array.make g.G.num_edges 0 in
      for v = 0 to g.G.num_nodes - 1 do
        List.iter
          (fun (nbr, eid) ->
            seen.(eid) <- seen.(eid) + 1;
            assert (g.G.dst.(eid) = v && g.G.src.(eid) = nbr))
          (Sampler_oracle.neighbors csr v)
      done;
      Array.for_all (fun c -> c = 1) seen)

let prop_compact_rows_contiguous =
  QCheck.Test.make ~name:"compact rows partition by etype and are dense" ~count:50 arb_graph
    (fun g ->
      let cm = Cm.build g in
      let covered = Array.make cm.Cm.num_pairs false in
      Array.iter (fun r -> covered.(r) <- true) cm.Cm.row_of_edge;
      Array.for_all (fun b -> b) covered
      && cm.Cm.etype_ptr.(G.num_etypes g) = cm.Cm.num_pairs)

let prop_degrees_sum_to_edges =
  QCheck.Test.make ~name:"degree sums equal edge count" ~count:50 arb_graph (fun g ->
      let sum a = Array.fold_left ( + ) 0 a in
      sum (G.in_degrees g) = g.G.num_edges && sum (G.out_degrees g) = g.G.num_edges)

let spec_gen =
  QCheck.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* num_ntypes = int_range 1 30 in
    let* num_etypes = int_range 1 600 in
    let* num_nodes = int_range num_ntypes (num_ntypes + 2000) in
    let* num_edges = int_range num_etypes (num_etypes + 6000) in
    let* below_one = float_bound_exclusive 1.0 in
    let* scale = float_range 1.0 1000.0 in
    return
      {
        Gen.name = "prop";
        num_ntypes;
        num_etypes;
        num_nodes;
        num_edges;
        compaction_target = 1.0 -. below_one;
        scale;
        seed;
      })

let prop_generator_matches_oracle =
  QCheck.Test.make ~name:"generator == hashtable-and-scan oracle" ~count:100
    (QCheck.make spec_gen ~print:(fun (s : Gen.spec) ->
         Printf.sprintf "ntypes %d etypes %d nodes %d edges %d target %h scale %h seed %d"
           s.Gen.num_ntypes s.Gen.num_etypes s.Gen.num_nodes s.Gen.num_edges
           s.Gen.compaction_target s.Gen.scale s.Gen.seed))
    (fun spec -> same_graph (Gen.generate spec) (Gen_oracle.generate spec))

let suite =
  [
    Alcotest.test_case "metagraph basics" `Quick test_metagraph_basics;
    Alcotest.test_case "metagraph invalid" `Quick test_metagraph_invalid;
    Alcotest.test_case "create sorts edges by etype" `Quick test_create_sorts_edges;
    Alcotest.test_case "create rejects violations" `Quick test_create_rejects_violations;
    Alcotest.test_case "type ranges" `Quick test_type_ranges;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "logical scaling" `Quick test_logical_scaling;
    Alcotest.test_case "CSR incoming matches COO" `Quick test_csr_incoming_matches_coo;
    Alcotest.test_case "CSR outgoing matches COO" `Quick test_csr_outgoing_matches_coo;
    Alcotest.test_case "CSR owner_of_index" `Quick test_csr_owner_of_index;
    Alcotest.test_case "compact map on tiny graph" `Quick test_compact_map_tiny;
    Alcotest.test_case "generator counts" `Quick test_generator_counts;
    Alcotest.test_case "generator compaction target" `Quick test_generator_compaction_tracks_target;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator validation" `Quick test_generator_validation;
    Alcotest.test_case "datasets Table 4 stats" `Quick test_datasets_table4;
    Alcotest.test_case "datasets load scales" `Quick test_datasets_load_scales;
    Alcotest.test_case "small dataset full size" `Quick test_datasets_small_full_size;
    Alcotest.test_case "am/fb15k compaction ratios" `Quick test_dataset_compaction_targets;
    Alcotest.test_case "datasets reject caps below 1" `Quick test_datasets_reject_bad_caps;
    Alcotest.test_case "datasets match the oracle generator" `Quick test_datasets_match_oracle;
    Alcotest.test_case "datasets golden digests" `Quick test_datasets_golden_digests;
    QCheck_alcotest.to_alcotest prop_csr_roundtrip;
    QCheck_alcotest.to_alcotest prop_compact_rows_contiguous;
    QCheck_alcotest.to_alcotest prop_degrees_sum_to_edges;
    QCheck_alcotest.to_alcotest prop_generator_matches_oracle;
  ]
