(* Tests for the delta-ingestion subsystem: delta generation, mutable-graph
   snapshots (CSR patching, epochs, compaction), incremental partition
   rebalance, and the serve-over-deltas ≡ rebuild-from-scratch anchor. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Gen = Hector_graph.Generator
module Sampler = Hector_graph.Sampler
module Partition = Hector_graph.Partition
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Knobs = Hector_runtime.Knobs
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

let make_mg ?slack ?compact ?(seed = 7) () =
  let g = base_graph ~seed () in
  let features = T.randn (Rng.create (seed + 1)) [| g.G.num_nodes; feat_dim |] in
  Mg.create ?slack ?compact ~graph:g ~features ()

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

(* --- mutable graph ---------------------------------------------------- *)

(* random delta traces always apply cleanly; after every apply the
   incrementally-maintained CSR equals a from-scratch rebuild and the
   old->new maps are strictly increasing on survivors *)
let test_apply_csr_and_maps =
  QCheck.Test.make ~name:"deltas apply; patched CSR ≡ rebuilt; maps monotone"
    ~count:25
    QCheck.(make Gen.(pair (int_range 0 999) (int_range 1 6)))
    (fun (seed, rounds) ->
      let mg = make_mg ~slack:0.4 ~compact:0.3 ~seed:(seed land 7) () in
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
  check_bool "features refreshed" true (before.Mg.features != after.Mg.features)

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
  check_int "epoch counter" 1 (Mg.counters mg).Mg.epochs

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
  done

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
    QCheck.(
      make
        Gen.(
          pair (int_range 0 9999)
            (quad (int_range 0 1) (int_range 0 2) (int_range 0 2) (int_range 2 10))))
    (fun (seed, (mix_i, slack_i, compact_i, rounds)) ->
      let mix = if mix_i = 0 then Delta.default_mix else edge_mix in
      let slack = [| 0.0; 0.25; 2.0 |].(slack_i) and compact = [| 0.1; 0.25; 1.0 |].(compact_i) in
      let g = base_graph ~seed:(seed land 7) () in
      let features = T.randn (Rng.create seed) [| g.G.num_nodes; feat_dim |] in
      let mg = Mg.create ~slack ~compact ~graph:g ~features () in
      let oracle = Oracle.create ~slack ~compact ~graph:g ~features () in
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

(* --- partition rebalance ---------------------------------------------- *)

let check_partition_invariants g (p : Partition.t) =
  let n = g.G.num_nodes in
  if Array.length p.Partition.owner <> n then failwith "owner length";
  Array.iter
    (fun o -> if o < 0 || o >= p.Partition.parts then failwith "owner out of range")
    p.Partition.owner;
  (* every parent edge appears in exactly one partition — the one owning
     its destination — and local structure mirrors the parent *)
  let edge_seen = Array.make g.G.num_edges 0 in
  let owned_seen = Array.make n 0 in
  Array.iteri
    (fun pid (m : Partition.part) ->
      Array.iteri
        (fun le pe ->
          edge_seen.(pe) <- edge_seen.(pe) + 1;
          if p.Partition.owner.(g.G.dst.(pe)) <> pid then
            failwith "edge assigned to a partition not owning its destination";
          if
            g.G.src.(pe) <> m.Partition.origin_node.(m.Partition.sub.G.src.(le))
            || g.G.dst.(pe) <> m.Partition.origin_node.(m.Partition.sub.G.dst.(le))
            || g.G.etype.(pe) <> m.Partition.sub.G.etype.(le)
          then failwith "local edge does not mirror its parent edge")
        m.Partition.origin_edge;
      Array.iteri
        (fun ln pn ->
          if g.G.node_type.(pn) <> m.Partition.sub.G.node_type.(ln) then
            failwith "local node type mismatch";
          let should_own = p.Partition.owner.(pn) = pid in
          if m.Partition.owned.(ln) <> should_own then failwith "owned flag wrong";
          if should_own then owned_seen.(pn) <- owned_seen.(pn) + 1
          else begin
            (* halo completeness: a non-owned local must mirror a row of
               the partition that owns it *)
            let peer = p.Partition.owner.(pn) in
            let found = ref false in
            Array.iter
              (fun (q, pairs) ->
                if q = peer then
                  Array.iter
                    (fun (local, peer_local) ->
                      if local = ln then begin
                        if
                          p.Partition.members.(q).Partition.origin_node.(peer_local)
                          <> pn
                        then failwith "halo mirrors the wrong parent node";
                        found := true
                      end)
                    pairs)
              m.Partition.halo;
            if not !found then failwith "halo entry missing for boundary node"
          end)
        m.Partition.origin_node)
    p.Partition.members;
  Array.iter (fun c -> if c <> 1 then failwith "edge not covered exactly once") edge_seen;
  Array.iter (fun c -> if c <> 1 then failwith "node not owned exactly once") owned_seen;
  (* cut statistics agree with the ownership *)
  let cut = ref 0 in
  for e = 0 to g.G.num_edges - 1 do
    if p.Partition.owner.(g.G.src.(e)) <> p.Partition.owner.(g.G.dst.(e)) then incr cut
  done;
  if p.Partition.cut_edges <> !cut then failwith "cut_edges stale"

let test_rebalance_invariants =
  QCheck.Test.make ~name:"incremental rebalance upholds partition invariants"
    ~count:20
    QCheck.(make Gen.(triple (int_range 0 499) (int_range 1 4) (int_range 5 40)))
    (fun (seed, parts, ops) ->
      let mg = make_mg ~seed:(seed land 7) () in
      let p0 = Partition.partition ~parts (Mg.snapshot mg).Mg.graph in
      let d = gen_delta mg ~seed ~ops in
      match Mg.apply mg d with
      | Error m -> failwith m
      | Ok st ->
          let g = (Mg.snapshot mg).Mg.graph in
          let p1, stats =
            Partition.rebalance p0 ~graph:g ~node_map:st.Mg.node_map
              ~edge_map:st.Mg.edge_map ()
          in
          check_partition_invariants g p1;
          if not stats.Partition.full_rebuild then begin
            if Partition.balance p1 > 2.0 +. 1e-9 then
              failwith "balance bound exceeded without a full rebuild";
            if
              stats.Partition.parts_rebuilt + stats.Partition.parts_reused
              <> parts
            then failwith "rebuilt + reused <> parts"
          end;
          true)

let test_rebalance_feature_only_reuses_everything () =
  let mg = make_mg () in
  let parts = 3 in
  let p0 = Partition.partition ~parts (Mg.snapshot mg).Mg.graph in
  let mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.0; remove_edge = 0.0; set_feat = 1.0 }
  in
  match Mg.apply mg (gen_delta ~mix mg ~seed:9 ~ops:8) with
  | Error m -> Alcotest.fail m
  | Ok st ->
      let g = (Mg.snapshot mg).Mg.graph in
      let _, stats =
        Partition.rebalance p0 ~graph:g ~node_map:st.Mg.node_map
          ~edge_map:st.Mg.edge_map ()
      in
      check_int "no partitions rebuilt" 0 stats.Partition.parts_rebuilt;
      check_int "all reused" parts stats.Partition.parts_reused;
      check_int "no halos touched" 0 stats.Partition.halos_patched;
      check_bool "no full rebuild" false stats.Partition.full_rebuild

(* --- streaming serve --------------------------------------------------- *)

(* the invalidation-protocol pins: a warm replica survives in-slack
   deltas with zero recompiles and zero engine allocations *)
let test_inslack_zero_recompile_zero_alloc () =
  let mg = make_mg ~slack:4.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  check_int "warmup compiles once" 1 (Ss.recompiles ss);
  check_int "slab tagged epoch 0" 0 (Serve.slab_epoch (Ss.replica ss));
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
  check_int "allocations pinned at warmup" warm
    (Memory.alloc_count (Engine.memory (Serve.engine (Ss.replica ss))));
  check_bool "updates cost simulated time" true (Ss.update_ms ss > 0.0)

let test_epoch_rewarm_pins_weights () =
  let mg = make_mg ~slack:0.05 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  let w0 = Serve.model_weights (Ss.replica ss) in
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
  check_int "one recompile per epoch" 2 (Ss.recompiles ss);
  check_int "slab tagged with the new epoch" (Mg.epoch mg)
    (Serve.slab_epoch (Ss.replica ss));
  let w1 = Serve.model_weights (Ss.replica ss) in
  check_bool "weights pinned across the re-warm" true
    (List.for_all2 (fun (n0, t0) (n1, t1) -> n0 = n1 && t0 == t1) w0 w1);
  (* and the re-warmed replica still matches a from-scratch one *)
  match Ss.check_equivalence ss (trace ~seed:77 ~requests:8 (Mg.live_nodes mg)) with
  | Ok d -> check_bool "post-epoch equivalence" true (d <= 1e-6)
  | Error m -> Alcotest.fail m

let test_backlog_applies_at_boundaries () =
  let mg = make_mg ~slack:3.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  Ss.push ss (gen_delta mg ~seed:1 ~ops:5);
  Ss.push ss (gen_delta mg ~seed:2 ~ops:5);
  check_int "two pending" 2 (Ss.pending ss);
  check_int "nothing applied yet" 0 (Mg.counters mg).Mg.deltas;
  ignore (Ss.serve ss (trace ~requests:4 (Mg.live_nodes mg)));
  check_int "backlog drained" 0 (Ss.pending ss);
  check_int "both applied" 2 (Mg.counters mg).Mg.deltas

let test_replay_validates_indices () =
  let mg = make_mg ~slack:3.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  let requests = trace ~requests:4 (Mg.live_nodes mg) in
  let d = gen_delta mg ~seed:1 ~ops:3 in
  check_bool "out-of-range index raises" true
    (match Ss.replay ss ~requests ~deltas:[| (9, d) |] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "decreasing indices raise" true
    (match Ss.replay ss ~requests ~deltas:[| (3, d); (1, d) |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

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
          let requests = trace ~seed ~requests:12 (Mg.live_nodes mg) in
          let deltas =
            [| (4, gen_delta mg ~seed:(seed + 1) ~ops:20) |]
          in
          let _ = Ss.replay ss ~requests ~deltas in
          (* a second wave after the replay, through the backlog path *)
          Ss.push ss (gen_delta mg ~seed:(seed + 2) ~ops:15);
          ignore (Ss.serve ss (trace ~seed:(seed + 3) ~requests:4 (Mg.live_nodes mg)));
          let probe = trace ~seed:(seed + 9) ~requests:8 (Mg.live_nodes mg) in
          match Ss.check_equivalence ss probe with
          | Ok d -> d <= 1e-6
          | Error m -> failwith m))

let test_metrics_json_envelope () =
  let mg = make_mg ~slack:2.0 () in
  let ss = Ss.create ~config:serve_config ~mg (rgcn ()) in
  (match Ss.apply ss (gen_delta mg ~seed:4 ~ops:10) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  ignore (Ss.serve ss (trace ~requests:5 (Mg.live_nodes mg)));
  let json = Ss.metrics_json ss in
  List.iter
    (fun key -> check_bool ("metrics carry " ^ key) true (contains json ("\"" ^ key ^ "\"")))
    [
      "subsystem"; "elapsed_ms"; "launches"; "comm"; "deltas"; "ops"; "epochs";
      "rewarms"; "recompiles"; "csr_rebuilds"; "csr_patched_rows"; "compactions";
      "update_ms"; "served"; "rejected";
    ];
  check_bool "tagged stream" true (contains json "\"subsystem\":\"stream\"")

(* --- knobs ------------------------------------------------------------- *)

let test_stream_knobs () =
  let parse env = Knobs.parse (fun k -> List.assoc_opt k env) in
  let slack env = (parse env).Knobs.stream_slack in
  let compact env = (parse env).Knobs.stream_compact in
  check_bool "slack parses" true (slack [ ("HECTOR_STREAM_SLACK", "0.75") ] = Some 0.75);
  check_bool "slack zero is legal" true (slack [ ("HECTOR_STREAM_SLACK", "0") ] = Some 0.0);
  check_bool "unset slack" true (slack [] = None);
  check_bool "compact parses" true (compact [ ("HECTOR_STREAM_COMPACT", "0.5") ] = Some 0.5);
  check_bool "compact of 1 legal" true (compact [ ("HECTOR_STREAM_COMPACT", "1.0") ] = Some 1.0);
  (* malformed values raise instead of silently falling back *)
  let rejects label env =
    match parse env with
    | _ -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument msg ->
        check_bool (label ^ " error names the knob") true
          (String.length msg > 6 && String.sub msg 0 6 = "Knobs:")
  in
  rejects "negative slack" [ ("HECTOR_STREAM_SLACK", "-1") ];
  rejects "garbage slack" [ ("HECTOR_STREAM_SLACK", "lots") ];
  rejects "compact above 1" [ ("HECTOR_STREAM_COMPACT", "1.5") ];
  rejects "compact of 0" [ ("HECTOR_STREAM_COMPACT", "0") ]

let suite =
  [
    Alcotest.test_case "delta generation is deterministic and valid" `Quick
      test_generate_deterministic;
    Alcotest.test_case "feature-only mix draws no structural ops" `Quick
      test_generate_feature_only_mix;
    QCheck_alcotest.to_alcotest test_apply_csr_and_maps;
    Alcotest.test_case "invalid deltas reject atomically" `Quick test_reject_is_atomic;
    Alcotest.test_case "feature-only deltas reuse graph and CSR" `Quick
      test_feature_only_reuses_graph;
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
    QCheck_alcotest.to_alcotest test_rebalance_invariants;
    Alcotest.test_case "feature-only rebalance reuses every partition" `Quick
      test_rebalance_feature_only_reuses_everything;
    Alcotest.test_case "in-slack serving: zero recompiles, zero allocs" `Quick
      test_inslack_zero_recompile_zero_alloc;
    Alcotest.test_case "epoch re-warm pins weights and stays equivalent" `Quick
      test_epoch_rewarm_pins_weights;
    Alcotest.test_case "pushed deltas apply at micro-batch boundaries" `Quick
      test_backlog_applies_at_boundaries;
    Alcotest.test_case "replay validates delta indices" `Quick test_replay_validates_indices;
    QCheck_alcotest.to_alcotest test_equivalence_anchor;
    Alcotest.test_case "stream metrics use the shared envelope" `Quick
      test_metrics_json_envelope;
    Alcotest.test_case "HECTOR_STREAM_* knobs parse and validate" `Quick
      test_stream_knobs;
  ]
