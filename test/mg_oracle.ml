(* The Hashtbl-indexed mutable graph that [Hector_stream.Mutable_graph]
   replaced, kept as the reference its flat stable-id arrays are tested
   against (test_stream.ml's differential property).  Liveness, endpoints
   and feature rows live in per-stable-id hashtables; every snapshot is
   rebuilt through them, and validation dry-runs a delta against copies
   of both indices.  It shares the library's record types so states
   compare field by field. *)

module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Metagraph = Hector_graph.Metagraph
module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Tensor = Hector_tensor.Tensor
module G = Hetgraph

type snapshot = Mg.snapshot = {
  graph : Hetgraph.t;
  features : Tensor.t;
  csr : Csr.t;
  node_stable : int array;
  edge_stable : int array;
  epoch : int;
  version : int;
}

type apply_stats = Mg.apply_stats = {
  epoch_changed : bool;
  structural : bool;
  csr_patched_rows : int;
  csr_rebuilt : bool;
  compactions : int;
  node_map : int array;
  feature_rows : int array option;
  edge_map : int array;
}

type counters = Mg.counters = {
  deltas : int;
  ops : int;
  epochs : int;
  node_overflows : int;
  edge_overflows : int;
  rebuilds : int;
  churn_rebuilds : int;
  patched_rows : int;
  compacted : int;
  rejected_deltas : int;
}

let default_slack = 0.5
let compact_threshold = 0.25

(* A segment is the append-ordered list of stable ids ever inserted into
   one node/edge type; liveness lives in the index hashtables, so a slot
   is dead exactly when its id is absent there.  Stable ids come from a
   monotone counter and compaction preserves slot order, so the live
   subsequence of a segment is always ascending — the property that makes
   every old->new physical map strictly increasing on survivors. *)
type seg = { mutable slots : int array; mutable len : int; mutable live : int }

let seg_make () = { slots = Array.make 4 0; len = 0; live = 0 }

let seg_push seg s =
  if seg.len = Array.length seg.slots then begin
    let bigger = Array.make (2 * Array.length seg.slots) 0 in
    Array.blit seg.slots 0 bigger 0 seg.len;
    seg.slots <- bigger
  end;
  seg.slots.(seg.len) <- s;
  seg.len <- seg.len + 1;
  seg.live <- seg.live + 1

let seg_live_ids index seg =
  let out = Array.make seg.live 0 in
  let k = ref 0 in
  for i = 0 to seg.len - 1 do
    let s = seg.slots.(i) in
    if Hashtbl.mem index s then begin
      out.(!k) <- s;
      incr k
    end
  done;
  out

let seg_compact index seg =
  if seg.len > seg.live then begin
    let out = Array.make (max seg.live 4) 0 in
    let k = ref 0 in
    for i = 0 to seg.len - 1 do
      let s = seg.slots.(i) in
      if Hashtbl.mem index s then begin
        out.(!k) <- s;
        incr k
      end
    done;
    seg.slots <- out;
    seg.len <- seg.live;
    true
  end
  else false

type t = {
  gname : string;
  meta : Metagraph.t;
  fdim : int;
  slack : float;
  nseg : seg array;
  eseg : seg array;
  node_index : (int, int) Hashtbl.t;  (* stable -> ntype, live only *)
  edge_index : (int, int * int * int) Hashtbl.t;  (* stable -> (etype, src, dst) *)
  feats : (int, float array) Hashtbl.t;  (* stable node -> feature row *)
  mutable next_node : int;
  mutable next_edge : int;
  mutable ncap : int array;
  mutable ecap : int array;
  mutable cur_epoch : int;
  mutable cur_version : int;
  mutable snap : snapshot;
  mutable phys_of : (int, int) Hashtbl.t;  (* stable -> current physical node *)
  mutable cap_graph : Hetgraph.t;
  mutable c_deltas : int;
  mutable c_ops : int;
  mutable c_epochs : int;
  mutable c_node_overflows : int;
  mutable c_edge_overflows : int;
  mutable c_rebuilds : int;
  mutable c_churn_rebuilds : int;
  mutable c_patched : int;
  mutable c_compacted : int;
  mutable c_rejected : int;
}

let cap_of slack live = max 1 (int_of_float (ceil ((1.0 +. slack) *. float_of_int live)))

let derive_caps t =
  t.ncap <- Array.map (fun s -> cap_of t.slack s.live) t.nseg;
  t.ecap <- Array.map (fun s -> cap_of t.slack s.live) t.eseg

(* The warm-up graph of an epoch: every type at capacity.  Whoever sizes
   plans, arenas and staging against it reads its per-type counts and its
   compact (relation, endpoint) pair counts, so the placeholder edges of
   a relation cycle over its endpoint types' capacity nodes: each
   relation then has min(edge capacity, node capacity) pairs per side,
   which bounds the pairs of any block the epoch serves. *)
let build_cap_graph t =
  let ntypes = Metagraph.num_ntypes t.meta in
  let etypes = Metagraph.num_etypes t.meta in
  let total = Array.fold_left ( + ) 0 t.ncap in
  let node_type = Array.make total 0 in
  let off = Array.make ntypes 0 in
  let pos = ref 0 in
  for nt = 0 to ntypes - 1 do
    off.(nt) <- !pos;
    for _ = 1 to t.ncap.(nt) do
      node_type.(!pos) <- nt;
      incr pos
    done
  done;
  let edges = ref [] in
  for et = etypes - 1 downto 0 do
    let snt = Metagraph.src_ntype t.meta et and dnt = Metagraph.dst_ntype t.meta et in
    for i = t.ecap.(et) - 1 downto 0 do
      edges := (off.(snt) + (i mod t.ncap.(snt)), off.(dnt) + (i mod t.ncap.(dnt)), et) :: !edges
    done
  done;
  t.cap_graph <-
    G.create
      ~name:(Printf.sprintf "%s#e%d" t.gname t.cur_epoch)
      ~metagraph:t.meta ~node_type
      ~edges:(Array.of_list !edges)
      ()

(* Rebuild the physical snapshot from the live state.  [csr_hint] decides
   how the incoming CSR is produced; the caller knows whether the node
   set survived unchanged (patching legal) or not. *)
let rebuild t ~patch_csr =
  let old = t.snap in
  let ntypes = Metagraph.num_ntypes t.meta in
  let etypes = Metagraph.num_etypes t.meta in
  let node_stable =
    Array.concat (List.init ntypes (fun nt -> seg_live_ids t.node_index t.nseg.(nt)))
  in
  let n = Array.length node_stable in
  let phys = Hashtbl.create (max 16 n) in
  Array.iteri (fun i s -> Hashtbl.replace phys s i) node_stable;
  let node_type = Array.map (fun s -> Hashtbl.find t.node_index s) node_stable in
  let edge_stable =
    Array.concat (List.init etypes (fun et -> seg_live_ids t.edge_index t.eseg.(et)))
  in
  let m = Array.length edge_stable in
  let edges =
    Array.map
      (fun e ->
        let et, s, d = Hashtbl.find t.edge_index e in
        (Hashtbl.find phys s, Hashtbl.find phys d, et))
      edge_stable
  in
  let graph = G.create ~name:t.gname ~metagraph:t.meta ~node_type ~edges () in
  let features = Tensor.create_uninit [| n; t.fdim |] in
  Array.iteri
    (fun i s ->
      let row = Hashtbl.find t.feats s in
      for j = 0 to t.fdim - 1 do
        Tensor.set2 features i j row.(j)
      done)
    node_stable;
  let node_map =
    Array.map
      (fun s -> match Hashtbl.find_opt phys s with Some i -> i | None -> -1)
      old.node_stable
  in
  let ephys = Hashtbl.create (max 16 m) in
  Array.iteri (fun i e -> Hashtbl.replace ephys e i) edge_stable;
  let edge_map =
    Array.map
      (fun e -> match Hashtbl.find_opt ephys e with Some i -> i | None -> -1)
      old.edge_stable
  in
  let csr, patched_rows, rebuilt =
    if patch_csr then begin
      let csr, rows =
        Csr.patch_incoming old.csr ~old_graph:old.graph ~graph ~edge_map
      in
      (csr, rows, false)
    end
    else (Csr.incoming graph, 0, true)
  in
  if rebuilt then t.c_rebuilds <- t.c_rebuilds + 1;
  t.c_patched <- t.c_patched + patched_rows;
  t.cur_version <- t.cur_version + 1;
  t.snap <-
    {
      graph;
      features;
      csr;
      node_stable;
      edge_stable;
      epoch = t.cur_epoch;
      version = t.cur_version;
    };
  t.phys_of <- phys;
  (node_map, edge_map, patched_rows, rebuilt)

let create ?(name = "stream") ?slack ~graph ~features () =
  let slack = Option.value slack ~default:default_slack in
  if slack < 0.0 || not (Float.is_finite slack) then
    invalid_arg "Mutable_graph.create: slack must be a finite non-negative float";
  if Tensor.rows features <> graph.G.num_nodes then
    invalid_arg
      (Printf.sprintf "Mutable_graph.create: features have %d rows, graph has %d nodes"
         (Tensor.rows features) graph.G.num_nodes);
  let fdim = Tensor.cols features in
  let ntypes = G.num_ntypes graph in
  let etypes = G.num_etypes graph in
  let nseg = Array.init ntypes (fun _ -> seg_make ()) in
  let eseg = Array.init etypes (fun _ -> seg_make ()) in
  let node_index = Hashtbl.create (max 16 graph.G.num_nodes) in
  let edge_index = Hashtbl.create (max 16 graph.G.num_edges) in
  let feats = Hashtbl.create (max 16 graph.G.num_nodes) in
  for v = 0 to graph.G.num_nodes - 1 do
    let nt = graph.G.node_type.(v) in
    seg_push nseg.(nt) v;
    Hashtbl.replace node_index v nt;
    let row = Array.init fdim (fun j -> Tensor.get2 features v j) in
    Hashtbl.replace feats v row
  done;
  for e = 0 to graph.G.num_edges - 1 do
    let et = graph.G.etype.(e) in
    seg_push eseg.(et) e;
    Hashtbl.replace edge_index e (et, graph.G.src.(e), graph.G.dst.(e))
  done;
  let snap0 =
    {
      graph;
      features;
      csr = Csr.incoming graph;
      node_stable = Array.init graph.G.num_nodes Fun.id;
      edge_stable = Array.init graph.G.num_edges Fun.id;
      epoch = 0;
      version = 0;
    }
  in
  let phys_of = Hashtbl.create (max 16 graph.G.num_nodes) in
  for v = 0 to graph.G.num_nodes - 1 do
    Hashtbl.replace phys_of v v
  done;
  let t =
    {
      gname = name;
      meta = graph.G.metagraph;
      fdim;
      slack;
      nseg;
      eseg;
      node_index;
      edge_index;
      feats;
      next_node = graph.G.num_nodes;
      next_edge = graph.G.num_edges;
      ncap = [||];
      ecap = [||];
      cur_epoch = 0;
      cur_version = 0;
      snap = snap0;
      phys_of;
      cap_graph = graph;
      c_deltas = 0;
      c_ops = 0;
      c_epochs = 0;
      c_node_overflows = 0;
      c_edge_overflows = 0;
      c_rebuilds = 0;
      c_churn_rebuilds = 0;
      c_patched = 0;
      c_compacted = 0;
      c_rejected = 0;
    }
  in
  derive_caps t;
  build_cap_graph t;
  t

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* Dry-run the whole batch against shadow copies of the live indices so a
   bad op rejects the delta with nothing changed.  The shadow mirrors
   commit semantics exactly — including implicit incident-edge removal
   and stable ids for in-batch insertions — so a delta that validates
   cannot fail to commit. *)
let validate t (d : Delta.t) =
  let ni = Hashtbl.copy t.node_index in
  let ei = Hashtbl.copy t.edge_index in
  let next_node = ref t.next_node in
  let next_edge = ref t.next_edge in
  let ntypes = Metagraph.num_ntypes t.meta in
  let etypes = Metagraph.num_etypes t.meta in
  Array.iteri
    (fun i op ->
      match op with
      | Delta.Add_node { ntype; feat } ->
          if ntype < 0 || ntype >= ntypes then
            reject "op %d: node type %d out of range (%d node types)" i ntype ntypes;
          (match feat with
          | Some f when Array.length f <> t.fdim ->
              reject "op %d: feature row has %d values, graph carries %d" i
                (Array.length f) t.fdim
          | _ -> ());
          Hashtbl.replace ni !next_node ntype;
          incr next_node
      | Delta.Remove_node { node } ->
          if not (Hashtbl.mem ni node) then
            reject "op %d: node %d is not live (removed or never inserted)" i node;
          Hashtbl.remove ni node;
          let dead =
            Hashtbl.fold
              (fun e (_, s, d) acc -> if s = node || d = node then e :: acc else acc)
              ei []
          in
          List.iter (Hashtbl.remove ei) dead
      | Delta.Add_edge { etype; src; dst } -> (
          if etype < 0 || etype >= etypes then
            reject "op %d: edge type %d out of range (%d edge types)" i etype etypes;
          match (Hashtbl.find_opt ni src, Hashtbl.find_opt ni dst) with
          | None, _ -> reject "op %d: source node %d is not live" i src
          | _, None -> reject "op %d: destination node %d is not live" i dst
          | Some snt, Some dnt ->
              if snt <> Metagraph.src_ntype t.meta etype then
                reject "op %d: edge type %d expects source type %d, node %d has type %d"
                  i etype (Metagraph.src_ntype t.meta etype) src snt;
              if dnt <> Metagraph.dst_ntype t.meta etype then
                reject
                  "op %d: edge type %d expects destination type %d, node %d has type %d"
                  i etype (Metagraph.dst_ntype t.meta etype) dst dnt;
              Hashtbl.replace ei !next_edge (etype, src, dst);
              incr next_edge)
      | Delta.Remove_edge { edge } ->
          if not (Hashtbl.mem ei edge) then
            reject "op %d: edge %d is not live (removed or never inserted)" i edge;
          Hashtbl.remove ei edge
      | Delta.Set_feat { node; feat } ->
          if not (Hashtbl.mem ni node) then
            reject "op %d: node %d is not live" i node;
          if Array.length feat <> t.fdim then
            reject "op %d: feature row has %d values, graph carries %d" i
              (Array.length feat) t.fdim)
    d.Delta.ops

let commit t (d : Delta.t) =
  let node_churn = ref false and writes = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Delta.Add_node { ntype; feat } ->
          let s = t.next_node in
          t.next_node <- s + 1;
          seg_push t.nseg.(ntype) s;
          Hashtbl.replace t.node_index s ntype;
          let row =
            match feat with Some f -> Array.copy f | None -> Array.make t.fdim 0.0
          in
          Hashtbl.replace t.feats s row;
          if feat <> None then writes := s :: !writes;
          node_churn := true
      | Delta.Remove_node { node } ->
          let nt = Hashtbl.find t.node_index node in
          Hashtbl.remove t.node_index node;
          Hashtbl.remove t.feats node;
          t.nseg.(nt).live <- t.nseg.(nt).live - 1;
          let dead =
            Hashtbl.fold
              (fun e (et, s, d) acc ->
                if s = node || d = node then (e, et) :: acc else acc)
              t.edge_index []
          in
          List.iter
            (fun (e, et) ->
              Hashtbl.remove t.edge_index e;
              t.eseg.(et).live <- t.eseg.(et).live - 1)
            dead;
          node_churn := true
      | Delta.Add_edge { etype; src; dst } ->
          let e = t.next_edge in
          t.next_edge <- e + 1;
          seg_push t.eseg.(etype) e;
          Hashtbl.replace t.edge_index e (etype, src, dst)
      | Delta.Remove_edge { edge } ->
          let et, _, _ = Hashtbl.find t.edge_index edge in
          Hashtbl.remove t.edge_index edge;
          t.eseg.(et).live <- t.eseg.(et).live - 1
      | Delta.Set_feat { node; feat } ->
          Hashtbl.replace t.feats node (Array.copy feat);
          writes := node :: !writes)
    d.Delta.ops;
  (!node_churn, List.rev !writes)

(* The written rows by the new snapshot's numbering, in op order, when
   every old node kept its physical id and none was added. *)
let feature_rows t ~node_map writes =
  let stable = t.snap.node_stable in
  if
    Array.length node_map = Array.length stable
    && Array.for_all Fun.id (Array.mapi (fun i p -> p = i) node_map)
  then begin
    let pos = Hashtbl.create 16 in
    Array.iteri (fun i s -> Hashtbl.replace pos s i) stable;
    Some (Array.of_list (List.filter_map (Hashtbl.find_opt pos) writes))
  end
  else None

let apply t (d : Delta.t) =
  match validate t d with
  | exception Reject msg ->
      t.c_rejected <- t.c_rejected + 1;
      Error msg
  | () ->
      let structural = Delta.structural d in
      let node_churn, writes = commit t d in
      t.c_deltas <- t.c_deltas + 1;
      t.c_ops <- t.c_ops + Delta.size d;
      let node_over = Array.exists2 (fun s cap -> s.live > cap) t.nseg t.ncap in
      let edge_over = Array.exists2 (fun s cap -> s.live > cap) t.eseg t.ecap in
      if node_over || edge_over then begin
        (* epoch boundary: force-compact, re-derive capacities, rebuild
           everything.  Stable ids survive, so old->new maps stay valid
           (and monotone) across the boundary. *)
        t.cur_epoch <- t.cur_epoch + 1;
        t.c_epochs <- t.c_epochs + 1;
        if node_over then t.c_node_overflows <- t.c_node_overflows + 1;
        if edge_over then t.c_edge_overflows <- t.c_edge_overflows + 1;
        let compactions = ref 0 in
        Array.iter
          (fun s -> if seg_compact t.node_index s then incr compactions)
          t.nseg;
        Array.iter
          (fun s -> if seg_compact t.edge_index s then incr compactions)
          t.eseg;
        t.c_compacted <- t.c_compacted + !compactions;
        derive_caps t;
        build_cap_graph t;
        let node_map, edge_map, _, _ = rebuild t ~patch_csr:false in
        Ok
          {
            epoch_changed = true;
            structural;
            csr_patched_rows = 0;
            csr_rebuilt = true;
            compactions = !compactions;
            node_map;
            feature_rows = feature_rows t ~node_map writes;
            edge_map;
          }
      end
      else begin
        (* in-slack: sweep garbage past the threshold, then refresh the
           snapshot as cheaply as the delta allows *)
        let compactions = ref 0 in
        let sweep index s =
          if
            s.len > 0
            && float_of_int (s.len - s.live) /. float_of_int s.len > compact_threshold
            && seg_compact index s
          then incr compactions
        in
        Array.iter (sweep t.node_index) t.nseg;
        Array.iter (sweep t.edge_index) t.eseg;
        t.c_compacted <- t.c_compacted + !compactions;
        if not structural then begin
          (* feature-only: physical graph and CSR are untouched; refresh
             the feature matrix in a new snapshot *)
          let old = t.snap in
          let features = Tensor.create_uninit [| Array.length old.node_stable; t.fdim |] in
          Array.iteri
            (fun i s ->
              let row = Hashtbl.find t.feats s in
              for j = 0 to t.fdim - 1 do
                Tensor.set2 features i j row.(j)
              done)
            old.node_stable;
          t.cur_version <- t.cur_version + 1;
          t.snap <- { old with features; version = t.cur_version };
          let node_map = Array.init (Array.length old.node_stable) Fun.id in
          Ok
            {
              epoch_changed = false;
              structural = false;
              csr_patched_rows = 0;
              csr_rebuilt = false;
              compactions = !compactions;
              node_map;
              feature_rows = feature_rows t ~node_map writes;
              edge_map = Array.init (Array.length old.edge_stable) Fun.id;
            }
        end
        else begin
          (* compaction preserves the live order, so the node set (and its
             physical numbering) changed iff the delta touched nodes —
             edge-only structural deltas may patch the CSR row-wise *)
          let node_map, edge_map, patched, rebuilt =
            rebuild t ~patch_csr:(not node_churn)
          in
          if rebuilt then t.c_churn_rebuilds <- t.c_churn_rebuilds + 1;
          Ok
            {
              epoch_changed = false;
              structural = true;
              csr_patched_rows = patched;
              csr_rebuilt = rebuilt;
              compactions = !compactions;
              node_map;
              feature_rows = feature_rows t ~node_map writes;
              edge_map;
            }
        end
      end

let snapshot t = t.snap

let view t =
  {
    Delta.metagraph = t.meta;
    feat_dim = t.fdim;
    live_nodes = (fun nt -> seg_live_ids t.node_index t.nseg.(nt));
    live_edges =
      (fun et ->
        Array.map
          (fun e ->
            let _, s, d = Hashtbl.find t.edge_index e in
            (e, s, d))
          (seg_live_ids t.edge_index t.eseg.(et)));
  }

let capacity_graph t = t.cap_graph
let node_capacity t nt = t.ncap.(nt)
let edge_capacity t et = t.ecap.(et)
let epoch t = t.cur_epoch
let version t = t.cur_version
let live_nodes t = Hashtbl.length t.node_index
let live_edges t = Hashtbl.length t.edge_index
let name t = t.gname
let feat_dim t = t.fdim
let metagraph t = t.meta
let stable_of_node t phys = t.snap.node_stable.(phys)
let node_of_stable t s = Hashtbl.find_opt t.phys_of s

let counters t =
  {
    deltas = t.c_deltas;
    ops = t.c_ops;
    epochs = t.c_epochs;
    node_overflows = t.c_node_overflows;
    edge_overflows = t.c_edge_overflows;
    rebuilds = t.c_rebuilds;
    churn_rebuilds = t.c_churn_rebuilds;
    patched_rows = t.c_patched;
    compacted = t.c_compacted;
    rejected_deltas = t.c_rejected;
  }
