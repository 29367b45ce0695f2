(* Tests for the delta-ingestion subsystem: delta generation, mutable-graph
   snapshots (CSR patching, epochs, compaction), and the
   serve-over-deltas ≡ rebuild-from-scratch anchor. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Gen = Hector_graph.Generator
module Sampler = Hector_graph.Sampler
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Workload = Hector_serve.Workload
module Serve = Hector_serve.Serve
module Delta = Hector_stream.Delta
module Mg = Hector_stream.Mutable_graph
module Ss = Hector_stream.Stream_serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let base_graph ?(seed = 7) () =
  Gen.generate
    {
      Gen.name = "stream_base";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = 120;
      num_edges = 420;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let feat_dim = 8

let make_mg ?slack ?(seed = 7) () =
  let g = base_graph ~seed () in
  let features = T.randn (Rng.create (seed + 1)) [| g.G.num_nodes; feat_dim |] in
  Mg.create ?slack ~graph:g ~features ()

let rgcn () = Hector_models.Model_defs.rgcn ~in_dim:feat_dim ~out_dim:4 ()

let serve_config =
  {
    Serve.default_config with
    Serve.fanout = 8;
    hops = 2;
    max_batch = Some 4;
    max_wait_ms = 5.0;
    queue_capacity = Some 64;
  }

let trace ?(seed = 3) ?(requests = 10) num_nodes =
  Workload.generate
    ~spec:{ Workload.seed; requests; rate_rps = 2000.0; seeds_per_request = 2 }
    ~num_nodes ()

let gen_delta ?mix mg ~seed ~ops =
  Delta.generate ?mix ~view:(Mg.view mg) ~seed ~ops ()

let strictly_increasing_on_survivors map =
  let last = ref (-1) in
  Array.for_all
    (fun v ->
      if v < 0 then true
      else if v > !last then begin
        last := v;
        true
      end
      else false)
    map

(* --- delta generation ------------------------------------------------- *)

let test_generate_deterministic () =
  let mg = make_mg () in
  let d1 = gen_delta mg ~seed:5 ~ops:40 in
  let d2 = gen_delta mg ~seed:5 ~ops:40 in
  check_bool "same seed, same delta" true (d1 = d2);
  check_int "asked op count" 40 (Delta.size d1);
  let d3 = gen_delta mg ~seed:6 ~ops:40 in
  check_bool "different seed differs" true (d1 <> d3);
  match Mg.apply mg d1 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("generated delta rejected: " ^ m)

let test_generate_feature_only_mix () =
  let mg = make_mg () in
  let mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.0; remove_edge = 0.0; set_feat = 1.0 }
  in
  let d = gen_delta ~mix mg ~seed:11 ~ops:20 in
  check_bool "non-structural" false (Delta.structural d);
  check_int "all ops drawn" 20 (Delta.size d)

(* Edge-only deltas over a seed range add edges of every relation the
   metagraph allows between live nodes: the relation draw is uniform over
   the feasible ones, not stuck on the last. *)
let test_generate_reaches_every_relation () =
  let mg = make_mg () in
  let view = Mg.view mg in
  let mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 1.0; remove_edge = 0.0; set_feat = 0.0 }
  in
  let etypes = Hector_graph.Metagraph.num_etypes view.Delta.metagraph in
  let hit = Array.make etypes false in
  for seed = 1 to 8 do
    Array.iter
      (function Delta.Add_edge { etype; _ } -> hit.(etype) <- true | _ -> ())
      (gen_delta ~mix mg ~seed ~ops:30).Delta.ops
  done;
  Array.iteri
    (fun et h ->
      let feasible =
        Array.length (view.Delta.live_nodes (Hector_graph.Metagraph.src_ntype view.Delta.metagraph et)) > 0
        && Array.length (view.Delta.live_nodes (Hector_graph.Metagraph.dst_ntype view.Delta.metagraph et)) > 0
      in
      check_bool (Printf.sprintf "relation %d drawn" et) feasible h)
    hit

(* --- mutable graph ---------------------------------------------------- *)

(* random delta traces always apply cleanly; after every apply the
   incrementally-maintained CSR equals a from-scratch rebuild and the
   old->new maps are strictly increasing on survivors *)
let test_apply_csr_and_maps =
  QCheck.Test.make ~name:"deltas apply; patched CSR ≡ rebuilt; maps monotone"
    ~count:25
    QCheck.(make Gen.(pair (int_range 0 999) (int_range 1 6)))
    (fun (seed, rounds) ->
      let mg = make_mg ~slack:0.4 ~seed:(seed land 7) () in
      for r = 0 to rounds - 1 do
        let d = gen_delta mg ~seed:((seed * 31) + r) ~ops:25 in
        match Mg.apply mg d with
        | Error m -> failwith m
        | Ok st ->
            let snap = Mg.snapshot mg in
            let fresh = Csr.incoming snap.Mg.graph in
            if
              snap.Mg.csr.Csr.row_ptr <> fresh.Csr.row_ptr
              || snap.Mg.csr.Csr.col <> fresh.Csr.col
              || snap.Mg.csr.Csr.eid <> fresh.Csr.eid
            then failwith "maintained CSR diverged from Csr.incoming";
            if not (strictly_increasing_on_survivors st.Mg.node_map) then
              failwith "node_map not monotone";
            if not (strictly_increasing_on_survivors st.Mg.edge_map) then
              failwith "edge_map not monotone";
            if Mg.live_nodes mg <> snap.Mg.graph.G.num_nodes then
              failwith "live node count out of sync with snapshot"
      done;
      true)

let test_reject_is_atomic () =
  let mg = make_mg () in
  let v0 = Mg.version mg in
  let n0 = Mg.live_nodes mg in
  let e0 = Mg.live_edges mg in
  (* valid op followed by an invalid one: the whole batch must bounce *)
  let d =
    { Delta.ops = [| Delta.Add_node { ntype = 0; feat = None }; Delta.Remove_node { node = 999_999 } |] }
  in
  (match Mg.apply mg d with
  | Ok _ -> Alcotest.fail "invalid delta accepted"
  | Error m -> check_bool "names the op" true (contains m "op 1"));
  check_int "version unchanged" v0 (Mg.version mg);
  check_int "nodes unchanged" n0 (Mg.live_nodes mg);
  check_int "edges unchanged" e0 (Mg.live_edges mg);
  check_int "rejection counted" 1 (Mg.counters mg).Mg.rejected_deltas

let test_feature_only_reuses_graph () =
  let mg = make_mg () in
  let before = Mg.snapshot mg in
  let mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.0; remove_edge = 0.0; set_feat = 1.0 }
  in
  (match Mg.apply mg (gen_delta ~mix mg ~seed:2 ~ops:10) with
  | Error m -> Alcotest.fail m
  | Ok st ->
      check_bool "not structural" false st.Mg.structural;
      check_bool "no CSR rebuild" false st.Mg.csr_rebuilt;
      check_int "no rows patched" 0 st.Mg.csr_patched_rows);
  let after = Mg.snapshot mg in
  check_bool "physical graph reused" true (before.Mg.graph == after.Mg.graph);
  check_bool "CSR reused" true (before.Mg.csr == after.Mg.csr);
  check_bool "features written in place" true (before.Mg.features == after.Mg.features)

let feature_bits f = Array.map Int64.bits_of_float (T.to_flat_array f)

(* While the node numbering survives a delta, its feature rows go into the
   current snapshot's matrix in place: no tensor is allocated.  Node
   churn and epoch bumps get a fresh matrix, and a rejected delta touches
   neither snapshot nor features. *)
let test_features_in_place_while_numbering_kept () =
  let mg = make_mg ~slack:2.0 () in
  let view = Mg.view mg in
  let meta = view.Delta.metagraph in
  let row k = Array.init feat_dim (fun j -> float_of_int ((k * 100) + j)) in
  let v = (view.Delta.live_nodes 0).(0) in
  let e, _, _ = (view.Delta.live_edges 0).(0) in
  let src = (view.Delta.live_nodes (Hector_graph.Metagraph.src_ntype meta 0)).(1) in
  let dst = (view.Delta.live_nodes (Hector_graph.Metagraph.dst_ntype meta 0)).(1) in
  let before = Mg.snapshot mg in
  let allocs = T.allocation_count () in
  (match
     Mg.apply mg
       {
         Delta.ops =
           [|
             Delta.Remove_edge { edge = e };
             Delta.Set_feat { node = v; feat = row 1 };
             Delta.Add_edge { etype = 0; src; dst };
           |];
       }
   with
  | Error m -> Alcotest.fail m
  | Ok st ->
      check_bool "CSR patched" false st.Mg.csr_rebuilt;
      check_bool "written row reported" true
        (st.Mg.feature_rows = Some [| Option.get (Mg.node_of_stable mg v) |]));
  check_int "no tensor allocated" allocs (T.allocation_count ());
  let after = Mg.snapshot mg in
  check_bool "new graph" true (after.Mg.graph != before.Mg.graph);
  check_bool "same feature tensor" true (after.Mg.features == before.Mg.features);
  let p = Option.get (Mg.node_of_stable mg v) in
  check_bool "holds the delta's row" true
    (Array.init feat_dim (T.get2 after.Mg.features p) = row 1);
  (* a rejected delta: nothing moves, not even the row it would write *)
  let bits = feature_bits after.Mg.features in
  (match
     Mg.apply mg
       {
         Delta.ops =
           [| Delta.Set_feat { node = v; feat = row 2 }; Delta.Remove_edge { edge = -1 } |];
       }
   with
  | Ok _ -> Alcotest.fail "invalid delta accepted"
  | Error _ -> ());
  check_bool "snapshot untouched" true (Mg.snapshot mg == after);
  check_bool "features untouched" true (feature_bits after.Mg.features = bits);
  (* node churn: a fresh matrix, the previous one left as it was *)
  (match
     Mg.apply mg
       {
         Delta.ops =
           [|
             Delta.Add_node { ntype = 0; feat = Some (row 3) };
             Delta.Set_feat { node = v; feat = row 4 };
           |];
       }
   with
  | Error m -> Alcotest.fail m
  | Ok st -> check_bool "numbering moved" true (st.Mg.feature_rows = None));
  let churned = Mg.snapshot mg in
  check_bool "node churn: fresh features" true (churned.Mg.features != after.Mg.features);
  check_bool "node churn: previous matrix unchanged" true (feature_bits after.Mg.features = bits);
  (* an epoch bump that keeps the numbering (an edge type overflows): fresh too *)
  let mg = make_mg ~slack:0.0 () in
  let before = Mg.snapshot mg in
  (match Mg.apply mg { Delta.ops = [| Delta.Add_edge { etype = 0; src; dst } |] } with
  | Error m -> Alcotest.fail m
  | Ok st ->
      check_bool "epoch bumped" true st.Mg.epoch_changed;
      check_bool "numbering kept" true (st.Mg.feature_rows = Some [||]));
  check_bool "epoch bump: fresh features" true
    ((Mg.snapshot mg).Mg.features != before.Mg.features);
  let c = Mg.counters mg in
  check_int "an edge-type overflow" 1 c.Mg.edge_overflows;
  check_int "no node-type overflow" 0 c.Mg.node_overflows;
  check_int "the bump's CSR rebuild" 1 c.Mg.rebuilds;
  check_int "no churn rebuild" 0 c.Mg.churn_rebuilds

let test_edge_only_patches_csr () =
  let mg = make_mg () in
  let mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.6; remove_edge = 0.4; set_feat = 0.0 }
  in
  match Mg.apply mg (gen_delta ~mix mg ~seed:4 ~ops:12) with
  | Error m -> Alcotest.fail m
  | Ok st ->
      check_bool "no full rebuild" false st.Mg.csr_rebuilt;
      check_bool "some rows patched" true (st.Mg.csr_patched_rows > 0);
      check_bool "patched under node count" true
        (st.Mg.csr_patched_rows < (Mg.snapshot mg).Mg.graph.G.num_nodes)

let test_epoch_bump () =
  let mg = make_mg ~slack:0.0 () in
  check_int "epoch 0" 0 (Mg.epoch mg);
  check_bool "capacity graph named for epoch 0" true
    (contains (Mg.capacity_graph mg).G.name "#e0");
  (* zero slack: capacity = live, so one insertion overflows *)
  let d = { Delta.ops = [| Delta.Add_node { ntype = 1; feat = None } |] } in
  (match Mg.apply mg d with
  | Error m -> Alcotest.fail m
  | Ok st ->
      check_bool "epoch changed" true st.Mg.epoch_changed;
      check_bool "CSR rebuilt" true st.Mg.csr_rebuilt);
  check_int "epoch 1" 1 (Mg.epoch mg);
  check_bool "capacity graph renamed" true
    (contains (Mg.capacity_graph mg).G.name "#e1");
  let c = Mg.counters mg in
  check_int "epoch counter" 1 c.Mg.epochs;
  check_int "a node-type overflow" 1 c.Mg.node_overflows;
  check_int "no edge-type overflow" 0 c.Mg.edge_overflows;
  check_int "the rebuild is the bump's, not churn's" 0 c.Mg.churn_rebuilds;
  (* in-slack node churn rebuilds the CSR for its own cause *)
  let mg = make_mg ~slack:2.0 () in
  (match Mg.apply mg d with
  | Error m -> Alcotest.fail m
  | Ok st -> check_bool "in slack" false st.Mg.epoch_changed);
  let c = Mg.counters mg in
  check_int "a churn rebuild" 1 c.Mg.churn_rebuilds;
  check_int "no epoch" 0 c.Mg.epochs

let test_capacity_graph_bounds () =
  let mg = make_mg ~slack:0.5 () in
  let cap = Mg.capacity_graph mg in
  let g = (Mg.snapshot mg).Mg.graph in
  for nt = 0 to G.num_ntypes g - 1 do
    let _, live = G.nodes_of_type g nt in
    let _, capped = G.nodes_of_type cap nt in
    check_int
      (Printf.sprintf "ntype %d capacity" nt)
      (max 1 (int_of_float (ceil (1.5 *. float_of_int live))))
      capped;
    check_int "accessor agrees" capped (Mg.node_capacity mg nt)
  done;
  for et = 0 to G.num_etypes g - 1 do
    let _, live = G.edges_of_type g et in
    let _, capped = G.edges_of_type cap et in
    check_int
      (Printf.sprintf "etype %d capacity" et)
      (max 1 (int_of_float (ceil (1.5 *. float_of_int live))))
      capped
  done;
  (* an out-of-range slack is rejected by name; zero is legal *)
  ignore (make_mg ~slack:0.0 ());
  let rejects field f =
    match f () with
    | _ -> Alcotest.failf "bad %s accepted" field
    | exception Invalid_argument msg ->
        check_bool ("names " ^ field) true
          (String.starts_with ~prefix:("Mutable_graph.create: " ^ field) msg)
  in
  rejects "slack" (fun () -> make_mg ~slack:(-1.0) ())

(* --- flat arrays ≡ Hashtbl oracle ---------------------------------------- *)

module Oracle = Mg_oracle

let same_bits a b =
  T.shape a = T.shape b
  &&
  let da, oa = T.storage a and db, ob = T.storage b in
  let rec go i =
    i = T.numel a
    || Int64.equal (Int64.bits_of_float da.(oa + i)) (Int64.bits_of_float db.(ob + i))
       && go (i + 1)
  in
  go 0

let same_graph (a : G.t) (b : G.t) =
  a.G.name = b.G.name && a.G.num_nodes = b.G.num_nodes && a.G.num_edges = b.G.num_edges
  && a.G.node_type = b.G.node_type && a.G.src = b.G.src && a.G.dst = b.G.dst
  && a.G.etype = b.G.etype && a.G.scale = b.G.scale
  && a.G.metagraph == b.G.metagraph

(* The first field where the library state and the oracle's differ. *)
let state_diff mg oracle =
  let a = Mg.snapshot mg and b = Oracle.snapshot oracle in
  let ntypes = G.num_ntypes a.Mg.graph and etypes = G.num_etypes a.Mg.graph in
  let view = Mg.view mg and oview = Oracle.view oracle in
  let max_node = Array.fold_left max (-1) a.Mg.node_stable in
  let checks =
    [
      ("snapshot graph", same_graph a.Mg.graph b.Mg.graph);
      ("feature bits", same_bits a.Mg.features b.Mg.features);
      ( "csr",
        a.Mg.csr.Csr.row_ptr = b.Mg.csr.Csr.row_ptr
        && a.Mg.csr.Csr.col = b.Mg.csr.Csr.col
        && a.Mg.csr.Csr.eid = b.Mg.csr.Csr.eid );
      ("node_stable", a.Mg.node_stable = b.Mg.node_stable);
      ("edge_stable", a.Mg.edge_stable = b.Mg.edge_stable);
      ("snapshot epoch/version", (a.Mg.epoch, a.Mg.version) = (b.Mg.epoch, b.Mg.version));
      ( "epoch/version",
        (Mg.epoch mg, Mg.version mg) = (Oracle.epoch oracle, Oracle.version oracle) );
      ("counters", Mg.counters mg = Oracle.counters oracle);
      ( "live counts",
        (Mg.live_nodes mg, Mg.live_edges mg)
        = (Oracle.live_nodes oracle, Oracle.live_edges oracle) );
      ( "node capacities",
        List.init ntypes (Mg.node_capacity mg) = List.init ntypes (Oracle.node_capacity oracle) );
      ( "edge capacities",
        List.init etypes (Mg.edge_capacity mg) = List.init etypes (Oracle.edge_capacity oracle) );
      ("capacity graph", same_graph (Mg.capacity_graph mg) (Oracle.capacity_graph oracle));
      ( "view",
        List.init ntypes view.Delta.live_nodes = List.init ntypes oview.Delta.live_nodes
        && List.init etypes view.Delta.live_edges = List.init etypes oview.Delta.live_edges );
      ( "node_of_stable",
        List.init (max_node + 8) (fun s -> Mg.node_of_stable mg (s - 2))
        = List.init (max_node + 8) (fun s -> Oracle.node_of_stable oracle (s - 2)) );
    ]
  in
  List.find_opt (fun (_, ok) -> not ok) checks |> Option.map fst

(* Ops drawn with little regard for validity — ids a little past the live
   range, negative ids, wrong types, wrong row lengths, references to
   nodes inserted earlier in the batch — so most such deltas reject at
   some op after partial progress, and the rest exercise in-batch
   references the generator never draws. *)
let wild_delta rng mg =
  let view = Mg.view mg in
  let ntypes = Hector_graph.Metagraph.num_ntypes view.Delta.metagraph in
  let etypes = Hector_graph.Metagraph.num_etypes view.Delta.metagraph in
  let hi =
    1 + Array.fold_left max 0 (Mg.snapshot mg).Mg.node_stable
    + Array.fold_left max 0 (Mg.snapshot mg).Mg.edge_stable
  in
  let id () = Random.State.int rng (hi + 6) - 2 in
  let row () =
    Array.init
      (if Random.State.int rng 8 = 0 then feat_dim + 1 else feat_dim)
      (fun _ -> Random.State.float rng 2.0 -. 1.0)
  in
  let op _ =
    match Random.State.int rng 5 with
    | 0 ->
        Delta.Add_node
          {
            ntype = Random.State.int rng (ntypes + 1);
            feat = (if Random.State.bool rng then Some (row ()) else None);
          }
    | 1 -> Delta.Remove_node { node = id () }
    | 2 ->
        Delta.Add_edge { etype = Random.State.int rng (etypes + 1) - 1; src = id (); dst = id () }
    | 3 -> Delta.Remove_edge { edge = id () }
    | _ -> Delta.Set_feat { node = id (); feat = row () }
  in
  { Delta.ops = Array.init (1 + Random.State.int rng 6) op }

(* Ops that reference what the batch itself did: a relation's endpoints
   inserted and wired up in-batch (their stable ids are the counters
   [next_node]/[next_edge]), then a removal that does or does not take a
   later op's edge with it. *)
let chained_delta rng mg ~next_node ~next_edge =
  let view = Mg.view mg in
  let meta = view.Delta.metagraph in
  let et = Random.State.int rng (Hector_graph.Metagraph.num_etypes meta) in
  let row () = Array.init feat_dim (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let built =
    [
      Delta.Add_node { ntype = Hector_graph.Metagraph.src_ntype meta et; feat = Some (row ()) };
      Delta.Add_node { ntype = Hector_graph.Metagraph.dst_ntype meta et; feat = None };
      Delta.Add_edge { etype = et; src = next_node; dst = next_node + 1 };
      Delta.Set_feat { node = next_node + 1; feat = row () };
    ]
  in
  let live = view.Delta.live_edges et in
  let old_edge = if Array.length live > 0 then Some live.(0) else None in
  let tail =
    match (Random.State.int rng 5, old_edge) with
    | 0, _ -> [ Delta.Remove_node { node = next_node }; Delta.Remove_edge { edge = next_edge } ]
    | 1, _ -> [ Delta.Remove_edge { edge = next_edge }; Delta.Remove_node { node = next_node } ]
    | 2, _ ->
        [
          Delta.Remove_node { node = next_node + 1 };
          Delta.Set_feat { node = next_node; feat = row () };
        ]
    | 3, Some (e, src, _) -> [ Delta.Remove_node { node = src }; Delta.Remove_edge { edge = e } ]
    | _, Some (e, _, dst) -> [ Delta.Remove_edge { edge = e }; Delta.Remove_node { node = dst } ]
    | _, None -> []
  in
  { Delta.ops = Array.of_list (built @ tail) }

(* a valid delta with one op repeated at a later position: removals of an
   already-removed id reject after the batch has made progress *)
let poisoned_delta rng mg ~mix ~seed =
  let d = gen_delta ~mix mg ~seed ~ops:12 in
  let n = Array.length d.Delta.ops in
  let k = Random.State.int rng n in
  let ops = Array.append d.Delta.ops [| d.Delta.ops.(k) |] in
  { Delta.ops = ops }

(* everything a caller can see of the live state besides the snapshot *)
let live_view mg =
  let v = Mg.view mg in
  let meta = v.Delta.metagraph in
  ( Mg.version mg,
    Mg.epoch mg,
    List.init (Hector_graph.Metagraph.num_ntypes meta) v.Delta.live_nodes,
    List.init (Hector_graph.Metagraph.num_etypes meta) v.Delta.live_edges )

let edge_mix =
  { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.35; remove_edge = 0.35; set_feat = 0.3 }

let test_flat_arrays_match_oracle =
  QCheck.Test.make ~name:"flat stable-id arrays ≡ Hashtbl oracle, bit for bit" ~count:60
    ~long_factor:20
    QCheck.(
      make
        Gen.(
          pair (int_range 0 9999)
            (triple (int_range 0 1) (int_range 0 2) (int_range 2 10))))
    (fun (seed, (mix_i, slack_i, rounds)) ->
      let mix = if mix_i = 0 then Delta.default_mix else edge_mix in
      let slack = [| 0.0; 0.25; 2.0 |].(slack_i) in
      let g = base_graph ~seed:(seed land 7) () in
      let features = T.randn (Rng.create seed) [| g.G.num_nodes; feat_dim |] in
      let mg = Mg.create ~slack ~graph:g ~features () in
      let oracle = Oracle.create ~slack ~graph:g ~features () in
      let rng = Random.State.make [| seed |] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      (match state_diff mg oracle with
      | Some f -> fail "after create: %s differs" f
      | None -> ());
      let next_node = ref g.G.num_nodes and next_edge = ref g.G.num_edges in
      for r = 0 to rounds - 1 do
        let d =
          match Random.State.int rng 5 with
          | 0 -> wild_delta rng mg
          | 1 -> poisoned_delta rng mg ~mix ~seed:((seed * 37) + r)
          | 2 -> chained_delta rng mg ~next_node:!next_node ~next_edge:!next_edge
          | _ -> gen_delta ~mix mg ~seed:((seed * 37) + r) ~ops:(5 + Random.State.int rng 30)
        in
        let before = Mg.snapshot mg and live_before = live_view mg in
        let got = Mg.apply mg d and want = Oracle.apply oracle d in
        if got <> want then fail "round %d: apply results differ" r;
        (match got with
        | Error _ when Mg.snapshot mg != before || live_view mg <> live_before ->
            fail "round %d: rejected delta changed the state" r
        | Error _ -> ()
        | Ok _ ->
            Array.iter
              (function
                | Delta.Add_node _ -> incr next_node
                | Delta.Add_edge _ -> incr next_edge
                | _ -> ())
              d.Delta.ops);
        match state_diff mg oracle with
        | Some f -> fail "round %d: %s differs" r f
        | None -> ()
      done;
      true)

(* --- stale ids: induce / sampler / serve ------------------------------ *)

let test_stale_ids_surface_as_errors () =
  let g = base_graph () in
  (* induce: stable Error, not an exception *)
  (match G.induce_result g ~nodes:[| 0; g.G.num_nodes + 3 |] ~edges:[||] with
  | Ok _ -> Alcotest.fail "induce accepted an out-of-range node"
  | Error m -> check_bool "message names the range" true (contains m "out of range"));
  (* sampler: same via sample_result *)
  (match Sampler.sample_result ~graph:g ~seeds:[| g.G.num_nodes + 3 |] ~fanout:4 ~hops:1 () with
  | Ok _ -> Alcotest.fail "sampler accepted a stale seed"
  | Error m -> check_bool "sampler error mentions seed" true (contains m "seed"));
  (* the raising wrapper still raises, for callers that want that *)
  check_bool "sample raises on stale seed" true
    (match Sampler.sample ~graph:g ~seeds:[| -1 |] ~fanout:4 ~hops:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* a request whose seed was tombstoned by a delta is rejected by the
   replica — counted, never raised, never shedding others *)
let test_serve_rejects_tombstoned_seed () =
  let mg = make_mg ~slack:2.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  let stale = Mg.live_nodes mg + 5 in
  let requests =
    [|
      { Workload.id = 0; arrival_ms = 0.0; seeds = [| 0; 1 |] };
      { Workload.id = 1; arrival_ms = 0.1; seeds = [| stale |] };
      { Workload.id = 2; arrival_ms = 0.2; seeds = [| 2 |] };
    |]
  in
  let responses = Ss.serve ss requests in
  check_bool "valid request served" true (responses.(0).Serve.output <> None);
  check_bool "stale request rejected" true (responses.(1).Serve.output = None);
  check_bool "later request unaffected" true (responses.(2).Serve.output <> None);
  check_int "rejection counted" 1 (Serve.rejected (Ss.replica ss));
  check_int "nothing shed" 0 (Serve.shed (Ss.replica ss))

(* --- streaming serve --------------------------------------------------- *)

(* the invalidation-protocol pins: a warm replica survives in-slack
   deltas with zero recompiles and zero engine allocations *)
let inslack_zero_recompile_zero_alloc ~label config program =
  let mg = make_mg ~slack:4.0 () in
  let ss = Ss.create ~config ~mg program in
  check_int "warmup compiles once" 1 (Ss.recompiles ss);
  let exec = Serve.exec (Ss.replica ss) in
  let warm = Serve.warm_alloc_count (Ss.replica ss) in
  for r = 0 to 4 do
    let d = gen_delta mg ~seed:(100 + r) ~ops:15 in
    (match Ss.apply ss d with
    | Error m -> Alcotest.fail m
    | Ok st -> check_bool "stays in slack" false st.Mg.epoch_changed);
    let reqs = trace ~seed:(50 + r) ~requests:6 (Mg.live_nodes mg) in
    let responses = Ss.serve ss reqs in
    Array.iter
      (fun (resp : Serve.response) ->
        check_bool "served" true (resp.Serve.output <> None))
      responses
  done;
  check_int "zero recompiles across 5 deltas" 1 (Ss.recompiles ss);
  check_int "zero re-warms" 0 (Ss.rewarms ss);
  check_bool "the executor survives every in-slack delta" true (Serve.exec (Ss.replica ss) == exec);
  check_int (label ^ ": allocations pinned at warmup") warm
    (Memory.alloc_count (Engine.memory (Serve.engine (Ss.replica ss))));
  check_bool "updates cost simulated time" true (Ss.update_ms ss > 0.0)

(* Over RGCN and RGAT under U and C: a compact-layout replica sizes its
   compact-space slots on the capacity graph's (relation, endpoint)
   pairs, so those must bound the pairs of any block the epoch serves. *)
let test_inslack_zero_recompile_zero_alloc () =
  List.iter
    (fun (model, compact) ->
      let options = Hector_core.Compiler.options_of_flags ~compact ~fusion:false () in
      inslack_zero_recompile_zero_alloc
        ~label:(Printf.sprintf "%s %s" model (if compact then "C" else "U"))
        { serve_config with Serve.options = Some options }
        (Hector_models.Model_defs.by_name model ~in_dim:feat_dim ~out_dim:4 ()))
    [ ("rgcn", false); ("rgcn", true); ("rgat", false); ("rgat", true) ]

let launches_of engine = (Hector_gpu.Stats.total (Engine.stats engine)).Hector_gpu.Stats.launches

(* An epoch bump re-warms the stream's one replica in place: same engine,
   executor, plan and weights, one load ledger, and a fault plan whose
   batch ids keep counting, so a scheduled failure fires once per stream,
   not once per epoch.  On this growth-only trace the grown replica holds
   exactly the device memory of one warmed fresh at the new capacity. *)
let test_epoch_rewarm_pins_weights () =
  let mg = make_mg ~slack:0.05 () in
  let faults = Hector_ckpt.Fault.create ~fail_batches:[ 0 ] () in
  let ss = Ss.create ~config:{ serve_config with Serve.faults = Some faults } ~mg (rgcn ()) in
  let replica = Ss.replica ss in
  let w0 = Serve.model_weights replica and exec0 = Serve.exec replica in
  ignore (Ss.serve ss (trace ~seed:71 ~requests:8 (Mg.live_nodes mg)));
  let engine0 = Serve.engine replica in
  let growth =
    { Delta.add_node = 0.4; remove_node = 0.0; add_edge = 0.6; remove_edge = 0.0; set_feat = 0.0 }
  in
  let bumps = ref 0 in
  let r = ref 0 in
  while !bumps = 0 && !r < 20 do
    (match Ss.apply ss (gen_delta ~mix:growth mg ~seed:(200 + !r) ~ops:12) with
    | Error m -> Alcotest.fail m
    | Ok st -> if st.Mg.epoch_changed then incr bumps);
    incr r
  done;
  check_bool "epoch bumped" true (!bumps > 0);
  check_int "one re-warm" 1 (Ss.rewarms ss);
  let memory = Engine.memory engine0 in
  let fresh =
    Serve.create ~config:{ serve_config with Serve.weights = w0 } ~graph:(Mg.capacity_graph mg)
      (rgcn ())
  in
  let fresh_memory = Engine.memory (Serve.engine fresh) in
  Alcotest.(check (float 0.0))
    "used bytes after the bump = a fresh replica's" (Memory.used_bytes fresh_memory)
    (Memory.used_bytes memory);
  Alcotest.(check (float 0.0))
    "peak bytes after the bump = a fresh replica's" (Memory.peak_bytes fresh_memory)
    (Memory.peak_bytes memory);
  ignore (Ss.serve ss (trace ~seed:72 ~requests:8 (Mg.live_nodes mg)));
  check_bool "the same replica serves after the bump" true (Ss.replica ss == replica);
  check_int "the re-warm recompiles nothing" 1 (Ss.recompiles ss);
  check_bool "the re-warm keeps the engine" true (Serve.engine replica == engine0);
  check_bool "and the executor" true (Serve.exec replica == exec0);
  check_int "serving after the bump allocates nothing" (Serve.warm_alloc_count replica)
    (Memory.alloc_count memory);
  check_int "one load ledger" (Ss.served ss) (Serve.load_stats replica).Serve.lserved;
  check_int "launches are the engine's" (launches_of engine0) (Serve.launches replica);
  check_int "batch 0 fails once per stream" 1
    (List.length
       (List.filter
          (function Hector_ckpt.Fault.Batch_failed { batch = 0 } -> true | _ -> false)
          (Hector_ckpt.Fault.events faults)));
  let w1 = Serve.model_weights replica in
  check_bool "weights pinned across the re-warm" true
    (List.for_all2 (fun (n0, t0) (n1, t1) -> n0 = n1 && t0 == t1) w0 w1);
  (* and the re-warmed replica still matches a from-scratch one *)
  match Ss.check_equivalence ss (trace ~seed:77 ~requests:8 (Mg.live_nodes mg)) with
  | Ok d -> check_bool "post-epoch equivalence" true (d <= 1e-6)
  | Error m -> Alcotest.fail m

(* The equivalence check's scratch replica runs without the stream's
   fault plan: checking leaves the plan's trace as it was. *)
let test_check_equivalence_leaves_fault_trace () =
  let mg = make_mg ~slack:2.0 () in
  let faults = Hector_ckpt.Fault.create ~fail_batches:[ 0 ] () in
  let ss = Ss.create ~config:{ serve_config with Serve.faults = Some faults } ~mg (rgcn ()) in
  ignore (Ss.serve ss (trace ~seed:71 ~requests:8 (Mg.live_nodes mg)));
  let events = Hector_ckpt.Fault.events faults in
  check_bool "batch 0 failed" true
    (List.mem (Hector_ckpt.Fault.Batch_failed { batch = 0 }) events);
  (match Ss.check_equivalence ss (trace ~seed:72 ~requests:8 (Mg.live_nodes mg)) with
  | Ok d -> check_bool "equivalent" true (d <= 1e-6)
  | Error m -> Alcotest.fail m);
  check_bool "fault trace unchanged by the check" true
    (Hector_ckpt.Fault.events faults = events)

(* THE correctness anchor: a replica that lived through a random delta
   trace answers exactly like one rebuilt from scratch over the final
   snapshot — across models and domain counts *)
let test_equivalence_anchor =
  QCheck.Test.make ~name:"serve-over-deltas ≡ rebuild-from-scratch (≤ 1e-6)"
    ~count:6
    QCheck.(make Gen.(triple (int_range 0 99) (int_range 0 1) (int_range 0 2)))
    (fun (seed, model_i, dom_i) ->
      with_domains [| 1; 2; 4 |].(dom_i) (fun () ->
          let model = [| "rgcn"; "rgat" |].(model_i) in
          let program =
            Hector_models.Model_defs.by_name model ~in_dim:feat_dim ~out_dim:4 ()
          in
          let mg = make_mg ~slack:0.5 ~seed:(seed land 15) () in
          let ss = Ss.create ~config:serve_config ~mg program in
          let apply d = match Ss.apply ss d with Ok _ -> () | Error m -> failwith m in
          let requests = trace ~seed ~requests:12 (Mg.live_nodes mg) in
          ignore (Ss.serve ss (Array.sub requests 0 4));
          apply (gen_delta mg ~seed:(seed + 1) ~ops:20);
          ignore (Ss.serve ss (Array.sub requests 4 8));
          apply (gen_delta mg ~seed:(seed + 2) ~ops:15);
          ignore (Ss.serve ss (trace ~seed:(seed + 3) ~requests:4 (Mg.live_nodes mg)));
          let probe = trace ~seed:(seed + 9) ~requests:8 (Mg.live_nodes mg) in
          match Ss.check_equivalence ss probe with
          | Ok d -> d <= 1e-6
          | Error m -> failwith m))

(* --- projected-row reuse never serves a stale row -------------------- *)

let output_bits (rs : Serve.response array) =
  Array.map
    (fun (r : Serve.response) ->
      Option.map (fun o -> Array.map Int64.bits_of_float (T.to_flat_array o)) r.Serve.output)
    rs

(* What a replica built fresh on the mutable graph's current snapshot, with
   [weights] pinned, serves: its row table starts empty. *)
let fresh_bits ~program ~weights mg requests =
  let snap = Mg.snapshot mg in
  let fresh =
    Serve.create
      ~config:{ serve_config with Serve.weights }
      ~features:(T.copy snap.Mg.features) ~graph:snap.Mg.graph program
  in
  output_bits (Serve.serve fresh requests)

let mixes =
  [|
    Delta.default_mix;
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.0; remove_edge = 0.0; set_feat = 1.0 };
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.5; remove_edge = 0.3; set_feat = 0.2 };
    { Delta.add_node = 0.3; remove_node = 0.3; add_edge = 0.1; remove_edge = 0.1; set_feat = 0.2 };
  |]

(* A replica whose projected rows outlive graph updates answers, after
   every update, exactly what a replica built fresh on the same snapshot
   answers.  Each round draws a delta (feature writes only, edge churn,
   node churn — so node counts move within capacity — or a mix), hands
   the snapshot to [Serve.update_graph] with the written rows when the
   numbering survived, or without them at random, then serves a trace
   twice: the second pass reads rows the first one projected.  An epoch
   bump re-warms the replica with the snapshot ([Serve.rewarm]), as the
   streaming driver does.  The second
   half drives [Stream_serve.apply] with the same mixes. *)
let test_reused_rows_never_stale =
  QCheck.Test.make ~name:"reused rows: live ≡ fresh replica on each snapshot, bit for bit"
    ~count:8
    QCheck.(make Gen.(pair (int_range 0 999) (int_range 0 1)))
    (fun (seed, model_i) ->
      let program =
        Hector_models.Model_defs.by_name [| "rgcn"; "rgat" |].(model_i) ~in_dim:feat_dim
          ~out_dim:4 ()
      in
      let rng = Random.State.make [| seed |] in
      let check label live_bits mg weights requests =
        if live_bits <> fresh_bits ~program ~weights mg requests then
          QCheck.Test.fail_reportf "%s: live replica differs from a fresh one" label
      in
      let round_delta mg r =
        gen_delta
          ~mix:mixes.(Random.State.int rng (Array.length mixes))
          mg ~seed:((seed * 31) + r) ~ops:(4 + Random.State.int rng 20)
      in
      (* Serve.update_graph directly *)
      let mg = make_mg ~slack:0.5 ~seed:(seed land 15) () in
      let live = Serve.create ~config:serve_config ~graph:(Mg.capacity_graph mg) program in
      let install ?rows () =
        let snap = Mg.snapshot mg in
        match
          Serve.update_graph live ~graph:snap.Mg.graph ~features:snap.Mg.features ?rows
            ~csr:snap.Mg.csr ()
        with
        | Ok () -> ()
        | Error m -> failwith m
      in
      install ();
      for r = 0 to 5 do
        (match Mg.apply mg (round_delta mg r) with
        | Error m -> failwith m
        | Ok stats when stats.Mg.epoch_changed -> (
            let snap = Mg.snapshot mg in
            match
              Serve.rewarm live ~capacity:(Mg.capacity_graph mg) ~graph:snap.Mg.graph
                ~features:snap.Mg.features ~csr:snap.Mg.csr
            with
            | Ok () -> ()
            | Error m -> failwith m)
        | Ok stats ->
            install ?rows:(if Random.State.bool rng then stats.Mg.feature_rows else None) ());
        let requests = trace ~seed:(seed + r) ~requests:12 (Mg.live_nodes mg) in
        let weights = Serve.model_weights live in
        let cold = output_bits (Serve.serve live requests) in
        check (Printf.sprintf "update %d, cold" r) cold mg weights requests;
        check (Printf.sprintf "update %d, warm" r) (output_bits (Serve.serve live requests)) mg
          weights requests
      done;
      (* Stream_serve.apply *)
      let mg = make_mg ~slack:0.5 ~seed:((seed + 7) land 15) () in
      let ss = Ss.create ~config:serve_config ~mg program in
      for r = 0 to 5 do
        (match Ss.apply ss (round_delta mg (r + 100)) with
        | Ok _ -> ()
        | Error m -> failwith m);
        let requests = trace ~seed:(seed + r + 50) ~requests:12 (Mg.live_nodes mg) in
        let weights = Serve.model_weights (Ss.replica ss) in
        ignore (Ss.serve ss requests);
        check (Printf.sprintf "stream delta %d" r) (output_bits (Ss.serve ss requests)) mg weights
          requests
      done;
      true)

(* A re-warm whose snapshot does not fit (another metagraph, or another
   feature width) is refused before the replica changes: no device charge
   freed or taken, the same engine, the same answers. *)
let test_refused_rewarm_changes_nothing () =
  let graph ~ntypes ~etypes ~nodes ~edges =
    Gen.generate
      {
        Gen.name = "stream_misfit";
        num_ntypes = ntypes;
        num_etypes = etypes;
        num_nodes = nodes;
        num_edges = edges;
        compaction_target = 0.5;
        scale = 1.0;
        seed = 11;
      }
  in
  let mg = make_mg ~slack:0.5 () in
  let live = Serve.create ~config:serve_config ~graph:(Mg.capacity_graph mg) (rgcn ()) in
  let snap = Mg.snapshot mg in
  (match
     Serve.update_graph live ~graph:snap.Mg.graph ~features:snap.Mg.features ~csr:snap.Mg.csr ()
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let requests = trace ~seed:5 ~requests:8 (Mg.live_nodes mg) in
  let bits = output_bits (Serve.serve live requests) in
  let engine = Serve.engine live in
  let memory = Engine.memory engine in
  let used = Memory.used_bytes memory and allocs = Memory.alloc_count memory in
  let capacity = graph ~ntypes:3 ~etypes:6 ~nodes:400 ~edges:1400 in
  let other = graph ~ntypes:2 ~etypes:4 ~nodes:100 ~edges:300 in
  let n = snap.Mg.graph.G.num_nodes in
  List.iter
    (fun (label, graph, features) ->
      (match Serve.rewarm live ~capacity ~graph ~features ~csr:(Csr.incoming graph) with
      | Ok () -> Alcotest.failf "%s: the re-warm was accepted" label
      | Error _ -> ());
      Alcotest.(check (float 0.0)) (label ^ ": used bytes") used (Memory.used_bytes memory);
      check_int (label ^ ": alloc count") allocs (Memory.alloc_count memory);
      check_bool (label ^ ": same engine") true (Serve.engine live == engine);
      check_bool (label ^ ": same answers") true (output_bits (Serve.serve live requests) = bits))
    [
      ("metagraph", other, T.zeros [| other.G.num_nodes; feat_dim |]);
      ("feature width", snap.Mg.graph, T.zeros [| n; feat_dim + 1 |]);
    ]

let test_metrics_json_envelope () =
  let mg = make_mg ~slack:2.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  (match Ss.apply ss (gen_delta mg ~seed:4 ~ops:10) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  ignore (Ss.serve ss (trace ~requests:5 (Mg.live_nodes mg)));
  let doc = Json_schema.envelope ~subsystem:"stream" (Ss.metrics_json ss) in
  List.iter
    (fun key -> ignore (Json_schema.int doc key))
    [
      "deltas"; "ops"; "epochs"; "epoch_node_overflows"; "epoch_edge_overflows"; "rewarms";
      "recompiles"; "csr_rebuilds"; "csr_rebuilds_churn"; "csr_rebuilds_epoch";
      "csr_patched_rows"; "compactions"; "served"; "rejected";
    ];
  check_bool "update time printed exactly" true
    (Float.equal (Json_schema.num doc "update_ms") (Ss.update_ms ss))

let suite =
  [
    Alcotest.test_case "delta generation is deterministic and valid" `Quick
      test_generate_deterministic;
    Alcotest.test_case "edge adds reach every feasible relation" `Quick
      test_generate_reaches_every_relation;
    Alcotest.test_case "feature-only mix draws no structural ops" `Quick
      test_generate_feature_only_mix;
    QCheck_alcotest.to_alcotest test_apply_csr_and_maps;
    Alcotest.test_case "invalid deltas reject atomically" `Quick test_reject_is_atomic;
    Alcotest.test_case "feature-only deltas reuse graph and CSR" `Quick
      test_feature_only_reuses_graph;
    Alcotest.test_case "features written in place while the numbering holds" `Quick
      test_features_in_place_while_numbering_kept;
    Alcotest.test_case "edge-only deltas patch the CSR" `Quick test_edge_only_patches_csr;
    Alcotest.test_case "overflow bumps the epoch and renames capacity" `Quick
      test_epoch_bump;
    Alcotest.test_case "capacity graph grants (1+slack)·live per type" `Quick
      test_capacity_graph_bounds;
    QCheck_alcotest.to_alcotest test_flat_arrays_match_oracle;
    Alcotest.test_case "stale ids surface as errors (induce/sampler)" `Quick
      test_stale_ids_surface_as_errors;
    Alcotest.test_case "serving rejects tombstoned seeds without shedding" `Quick
      test_serve_rejects_tombstoned_seed;
    Alcotest.test_case "in-slack serving: zero recompiles, zero allocs" `Quick
      test_inslack_zero_recompile_zero_alloc;
    Alcotest.test_case "epoch re-warm pins weights and stays equivalent" `Quick
      test_epoch_rewarm_pins_weights;
    Alcotest.test_case "equivalence check leaves the fault trace" `Quick
      test_check_equivalence_leaves_fault_trace;
    Alcotest.test_case "a refused re-warm changes nothing" `Quick test_refused_rewarm_changes_nothing;
    QCheck_alcotest.to_alcotest test_equivalence_anchor;
    QCheck_alcotest.to_alcotest test_reused_rows_never_stale;
    Alcotest.test_case "stream metrics use the shared envelope" `Quick
      test_metrics_json_envelope;
  ]
