module Metagraph = Hector_graph.Metagraph
module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Tensor = Hector_tensor.Tensor
module G = Hetgraph

type snapshot = {
  graph : Hetgraph.t;
  features : Tensor.t;
  csr : Csr.t;
  node_stable : int array;
  edge_stable : int array;
  epoch : int;
  version : int;
}

type apply_stats = {
  epoch_changed : bool;
  structural : bool;
  csr_patched_rows : int;
  csr_rebuilt : bool;
  compactions : int;
  node_map : int array;
  feature_rows : int array option;
  edge_map : int array;
}

type counters = {
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
(* a segment more than this fraction dead is compacted in place *)
let compact_threshold = 0.25

(* A segment is the append-ordered list of stable ids ever inserted into
   one node/edge type.  Liveness lives in the per-stable-id type array
   ([ty.(s) = -1] once dead).  Stable ids come from a monotone counter and
   compaction preserves slot order, so the live subsequence of a segment
   is always ascending — the property that makes every old->new physical
   map strictly increasing on survivors. *)
type seg = { mutable slots : int array; mutable len : int; mutable live : int }

let seg_make () = { slots = Array.make 4 0; len = 0; live = 0 }

let seg_push seg s =
  if seg.len = Array.length seg.slots then begin
    let bigger = Array.make (max 4 (2 * seg.len)) 0 in
    Array.blit seg.slots 0 bigger 0 seg.len;
    seg.slots <- bigger
  end;
  seg.slots.(seg.len) <- s;
  seg.len <- seg.len + 1;
  seg.live <- seg.live + 1

let seg_live_ids ty seg =
  let out = Array.make seg.live 0 in
  let k = ref 0 in
  for i = 0 to seg.len - 1 do
    let s = seg.slots.(i) in
    if ty.(s) >= 0 then begin
      out.(!k) <- s;
      incr k
    end
  done;
  out

let seg_compact ty seg =
  seg.len > seg.live
  && begin
       seg.slots <- seg_live_ids ty seg;
       seg.len <- seg.live;
       true
     end

(* Stable ids are dense (a monotone counter), so every per-id attribute
   is a flat array indexed by stable id, grown by doubling; [-1] marks a
   dead or never-inserted id in the type and physical-id arrays. *)
type t = {
  gname : string;
  meta : Metagraph.t;
  fdim : int;
  slack : float;
  nseg : seg array;
  eseg : seg array;
  mutable node_ty : int array;  (* stable node -> ntype *)
  mutable node_phys : int array;  (* stable node -> physical id in [snap] *)
  mutable edge_ty : int array;  (* stable edge -> etype *)
  mutable edge_src : int array;  (* stable edge -> stable source node *)
  mutable edge_dst : int array;
  mutable next_node : int;
  mutable next_edge : int;
  mutable ncap : int array;
  mutable ecap : int array;
  mutable cur_epoch : int;
  mutable cur_version : int;
  mutable snap : snapshot;
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

let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

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
  let off = Array.make (Array.length t.ncap) 0 in
  for nt = 1 to Array.length t.ncap - 1 do
    off.(nt) <- off.(nt - 1) + t.ncap.(nt - 1)
  done;
  let node_type = Array.make (Array.fold_left ( + ) 0 t.ncap) 0 in
  Array.iteri (fun nt cap -> Array.fill node_type off.(nt) cap nt) t.ncap;
  let m = Array.fold_left ( + ) 0 t.ecap in
  let src = Array.make m 0 and dst = Array.make m 0 and etype = Array.make m 0 in
  let pos = ref 0 in
  Array.iteri
    (fun et cap ->
      let snt = Metagraph.src_ntype t.meta et and dnt = Metagraph.dst_ntype t.meta et in
      for i = 0 to cap - 1 do
        src.(!pos + i) <- off.(snt) + (i mod t.ncap.(snt));
        dst.(!pos + i) <- off.(dnt) + (i mod t.ncap.(dnt))
      done;
      Array.fill etype !pos cap et;
      pos := !pos + cap)
    t.ecap;
  t.cap_graph <-
    G.of_columns ~name:(Printf.sprintf "%s#e%d" t.gname t.cur_epoch) ~metagraph:t.meta ~node_type
      ~src ~dst ~etype ()

(* What a committed delta changed in one typed layout (nodes or edges)
   relative to the previous snapshot: the previous positions it killed,
   and per type the stable ids it appended, newest first. *)
type churn = { mutable dead : int list; added : int list array }

let churn_make types = { dead = []; added = Array.make types [] }

(* The settled churn: dead positions ascending, per type the appended ids
   still live in insertion order, and the new element count; [None] when
   the layout is unchanged. *)
let settle ty c ~count =
  let added = Array.map (fun l -> List.rev (List.filter (fun s -> ty.(s) >= 0) l)) c.added in
  let dead = Array.of_list c.dead in
  Array.sort Int.compare dead;
  if dead = [||] && Array.for_all (( = ) []) added then None
  else
    Some
      ( dead,
        added,
        count - Array.length dead + Array.fold_left (fun acc l -> acc + List.length l) 0 added )

(* Per-type start offsets of a type-sorted column, plus its length. *)
let offsets range g types count =
  Array.init (types + 1) (fun ty -> if ty = types then count else fst (range g ty))

let identity n =
  let a = Array.make n 0 in
  for i = 1 to n - 1 do
    a.(i) <- i
  done;
  a

let types_column off =
  let types = Array.length off - 1 in
  let a = Array.make off.(types) 0 in
  for ty = 0 to types - 1 do
    Array.fill a off.(ty) (off.(ty + 1) - off.(ty)) ty
  done;
  a

(* The new typed layout, derived from the previous one by runs: each
   type's survivors keep their order, and each type gains its appended
   ids at its end — exactly the live subsequence of its segment, since
   inserts append and compaction preserves order.  [old_off] are the
   previous per-type offsets, [dead] the killed previous positions
   (ascending).  [run ~old_pos ~new_pos ~len] is called for every maximal
   run of survivors, [append ~new_pos s] for every appended id.  Returns
   the old -> new map ([-1] for the dead) and the new per-type offsets. *)
let relayout ~old_off ~dead ~added ~run ~append =
  let types = Array.length added in
  let map = Array.make old_off.(types) (-1) in
  let off = Array.make (types + 1) 0 in
  let p = ref 0 and k = ref 0 in
  for ty = 0 to types - 1 do
    off.(ty) <- !p;
    let i = ref old_off.(ty) and stop = old_off.(ty + 1) in
    while !i < stop do
      let cut = if !k < Array.length dead && dead.(!k) < stop then dead.(!k) else stop in
      let len = cut - !i in
      if len > 0 then begin
        run ~old_pos:!i ~new_pos:!p ~len;
        for j = 0 to len - 1 do
          map.(!i + j) <- !p + j
        done;
        p := !p + len
      end;
      if cut < stop then incr k;
      i := cut + 1
    done;
    List.iter
      (fun s ->
        append ~new_pos:!p s;
        incr p)
      added.(ty)
  done;
  off.(types) <- !p;
  (map, off)

(* The delta's feature rows, in op order, into [features] by the current
   numbering (rows of nodes the delta also removed are dropped). *)
let write_rows t features writes =
  let data, off = Tensor.storage features in
  List.iter
    (fun (s, row) ->
      let p = t.node_phys.(s) in
      if p >= 0 then Array.blit row 0 data (off + (p * t.fdim)) t.fdim)
    writes

(* The physical rows [write_rows] wrote, in op order. *)
let written_rows t writes =
  Array.of_list
    (List.filter_map (fun (s, _) -> if t.node_phys.(s) >= 0 then Some t.node_phys.(s) else None) writes)

(* Derive the next snapshot from the previous one and the delta's churn.
   Nodes and edges are laid out by runs ([relayout]); an unchanged layout
   shares the previous arrays, and an unchanged graph is the previous
   graph.  With [fresh] (node churn or an epoch bump) the features are a
   new matrix — survivors' rows gathered by the same runs, new nodes at
   zero — and the CSR is rebuilt; otherwise the numbering survived, the
   delta's rows are written into the previous feature matrix in place, and
   the CSR is patched (or kept, when the graph is).  Returns whether the
   numbering survived, the node and edge maps, and how the CSR was made. *)
let derive t ~fresh ~nodes ~edges ~writes =
  let old = t.snap in
  let ntypes = Array.length t.nseg and etypes = Array.length t.eseg in
  let n_old = Array.length old.node_stable and m_old = Array.length old.edge_stable in
  let kept, node_map, node_stable, node_type, features =
    match settle t.node_ty nodes ~count:n_old with
    | None ->
        ( true,
          identity n_old,
          old.node_stable,
          old.graph.G.node_type,
          if fresh then Tensor.copy old.features else old.features )
    | Some (dead, added, n) ->
        let node_stable = Array.make n 0 in
        let features = Tensor.create_uninit [| n; t.fdim |] in
        let src, so = Tensor.storage old.features and dst, d0 = Tensor.storage features in
        let node_map, off =
          relayout
            ~old_off:(offsets G.nodes_of_type old.graph ntypes n_old)
            ~dead ~added
            ~run:(fun ~old_pos ~new_pos ~len ->
              (* a typed loop: [Array.blit] pays a write barrier per
                 element on a major-heap int array *)
              for j = 0 to len - 1 do
                node_stable.(new_pos + j) <- old.node_stable.(old_pos + j)
              done;
              Array.blit src (so + (old_pos * t.fdim)) dst (d0 + (new_pos * t.fdim)) (len * t.fdim);
              if new_pos <> old_pos then
                for j = new_pos to new_pos + len - 1 do
                  t.node_phys.(node_stable.(j)) <- j
                done)
            ~append:(fun ~new_pos s ->
              node_stable.(new_pos) <- s;
              Array.fill dst (d0 + (new_pos * t.fdim)) t.fdim 0.0;
              t.node_phys.(s) <- new_pos)
        in
        Array.iter (fun p -> t.node_phys.(old.node_stable.(p)) <- -1) dead;
        (false, node_map, node_stable, types_column off, features)
  in
  write_rows t features writes;
  (* survivors' endpoints: the previous columns, through [node_map] when
     the numbering moved *)
  let ends col = if kept then col else Array.map (fun v -> node_map.(v)) col in
  let edge_map, edge_stable, src, dst, etype =
    match settle t.edge_ty edges ~count:m_old with
    | None ->
        (identity m_old, old.edge_stable, ends old.graph.G.src, ends old.graph.G.dst,
         old.graph.G.etype)
    | Some (dead, added, m) ->
        let edge_stable = Array.make m 0 and src = Array.make m 0 and dst = Array.make m 0 in
        let old_src = old.graph.G.src and old_dst = old.graph.G.dst in
        let old_off = offsets G.edges_of_type old.graph etypes m_old in
        let edge_map, off =
          relayout ~old_off ~dead ~added
            ~run:(fun ~old_pos ~new_pos ~len ->
              let shift = new_pos - old_pos in
              for i = old_pos to old_pos + len - 1 do
                edge_stable.(i + shift) <- old.edge_stable.(i);
                src.(i + shift) <- (if kept then old_src.(i) else node_map.(old_src.(i)));
                dst.(i + shift) <- (if kept then old_dst.(i) else node_map.(old_dst.(i)))
              done)
            ~append:(fun ~new_pos e ->
              edge_stable.(new_pos) <- e;
              src.(new_pos) <- t.node_phys.(t.edge_src.(e));
              dst.(new_pos) <- t.node_phys.(t.edge_dst.(e)))
        in
        let etype = if off = old_off then old.graph.G.etype else types_column off in
        (edge_map, edge_stable, src, dst, etype)
  in
  let graph =
    if kept && edge_stable == old.edge_stable then old.graph
    else G.of_columns ~name:t.gname ~metagraph:t.meta ~node_type ~src ~dst ~etype ()
  in
  let csr, patched_rows, rebuilt =
    if fresh then (Csr.incoming graph, 0, true)
    else if graph == old.graph then (old.csr, 0, false)
    else begin
      let csr, rows = Csr.patch_incoming old.csr ~old_graph:old.graph ~graph ~edge_map in
      (csr, rows, false)
    end
  in
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
  (kept, node_map, edge_map, patched_rows, rebuilt)

let create ?(name = "stream") ?slack ~graph ~features () =
  let slack = Option.value slack ~default:default_slack in
  if slack < 0.0 || not (Float.is_finite slack) then
    invalid_arg "Mutable_graph.create: slack must be a finite non-negative float";
  if Tensor.rows features <> graph.G.num_nodes then
    invalid_arg
      (Printf.sprintf "Mutable_graph.create: features have %d rows, graph has %d nodes"
         (Tensor.rows features) graph.G.num_nodes);
  let n = graph.G.num_nodes and m = graph.G.num_edges in
  let nseg = Array.init (G.num_ntypes graph) (fun _ -> seg_make ()) in
  let eseg = Array.init (G.num_etypes graph) (fun _ -> seg_make ()) in
  Array.iteri (fun v nt -> seg_push nseg.(nt) v) graph.G.node_type;
  Array.iteri (fun e et -> seg_push eseg.(et) e) graph.G.etype;
  let snap0 =
    {
      graph;
      features = Tensor.copy features;
      csr = Csr.incoming graph;
      node_stable = Array.init n Fun.id;
      edge_stable = Array.init m Fun.id;
      epoch = 0;
      version = 0;
    }
  in
  let t =
    {
      gname = name;
      meta = graph.G.metagraph;
      fdim = Tensor.cols features;
      slack;
      nseg;
      eseg;
      node_ty = Array.copy graph.G.node_type;
      node_phys = Array.init n Fun.id;
      edge_ty = Array.copy graph.G.etype;
      edge_src = Array.copy graph.G.src;
      edge_dst = Array.copy graph.G.dst;
      next_node = n;
      next_edge = m;
      ncap = [||];
      ecap = [||];
      cur_epoch = 0;
      cur_version = 0;
      snap = snap0;
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

(* Dry-run the whole batch so a bad op rejects the delta with nothing
   changed.  The live arrays are read, never written: what the batch has
   done so far sits in a small overlay of the ids it touched (nodes and
   edges it added or removed).  The overlay mirrors commit semantics
   exactly — a removed node takes its incident edges with it, and
   in-batch insertions get the stable ids commit will assign — so a delta
   that validates cannot fail to commit. *)
let validate t (d : Delta.t) =
  let added_nodes = Hashtbl.create 16 and removed_nodes = Hashtbl.create 16 in
  let added_edges = Hashtbl.create 16 and removed_edges = Hashtbl.create 16 in
  let next_node = ref t.next_node and next_edge = ref t.next_edge in
  let node_type s =
    if Hashtbl.mem removed_nodes s then None
    else if s >= 0 && s < t.next_node && t.node_ty.(s) >= 0 then Some t.node_ty.(s)
    else Hashtbl.find_opt added_nodes s
  in
  (* live edges never have dead endpoints, so an edge is live iff it exists,
     was not removed, and neither endpoint was removed since *)
  let edge_live e =
    (not (Hashtbl.mem removed_edges e))
    &&
    match
      if e >= 0 && e < t.next_edge && t.edge_ty.(e) >= 0 then Some (t.edge_src.(e), t.edge_dst.(e))
      else Hashtbl.find_opt added_edges e
    with
    | Some (s, d) -> node_type s <> None && node_type d <> None
    | None -> false
  in
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
          Hashtbl.replace added_nodes !next_node ntype;
          incr next_node
      | Delta.Remove_node { node } ->
          if node_type node = None then
            reject "op %d: node %d is not live (removed or never inserted)" i node;
          Hashtbl.replace removed_nodes node ()
      | Delta.Add_edge { etype; src; dst } -> (
          if etype < 0 || etype >= etypes then
            reject "op %d: edge type %d out of range (%d edge types)" i etype etypes;
          match (node_type src, node_type dst) with
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
              Hashtbl.replace added_edges !next_edge (src, dst);
              incr next_edge)
      | Delta.Remove_edge { edge } ->
          if not (edge_live edge) then
            reject "op %d: edge %d is not live (removed or never inserted)" i edge;
          Hashtbl.replace removed_edges edge ()
      | Delta.Set_feat { node; feat } ->
          if node_type node = None then
            reject "op %d: node %d is not live" i node;
          if Array.length feat <> t.fdim then
            reject "op %d: feature row has %d values, graph carries %d" i
              (Array.length feat) t.fdim)
    d.Delta.ops

let kill_edge t e =
  let seg = t.eseg.(t.edge_ty.(e)) in
  seg.live <- seg.live - 1;
  t.edge_ty.(e) <- -1

(* [s]'s position in the ascending [stable] slice [lo, hi). *)
let rec position stable s lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if stable.(mid) <= s then position stable s mid hi else position stable s lo mid

(* Commit a validated delta to the live arrays.  Returns whether nodes
   changed, the delta's feature rows in op order, and the node and edge
   churn against the current snapshot.  A removed node's incident edges
   die in one sweep after the ops: live edges never have dead endpoints,
   and no later op of the batch can reach a removed node. *)
let commit t (d : Delta.t) =
  let old = t.snap in
  let next_edge0 = t.next_edge in
  let nodes = churn_make (Array.length t.nseg) and edges = churn_make (Array.length t.eseg) in
  let node_churn = ref false and removed_nodes = ref false and writes = ref [] in
  Array.iter
    (fun op ->
      match op with
      | Delta.Add_node { ntype; feat } ->
          let s = t.next_node in
          t.next_node <- s + 1;
          t.node_ty <- grow t.node_ty t.next_node (-1);
          t.node_phys <- grow t.node_phys t.next_node (-1);
          seg_push t.nseg.(ntype) s;
          t.node_ty.(s) <- ntype;
          nodes.added.(ntype) <- s :: nodes.added.(ntype);
          Option.iter (fun f -> writes := (s, f) :: !writes) feat;
          node_churn := true
      | Delta.Remove_node { node } ->
          let seg = t.nseg.(t.node_ty.(node)) in
          seg.live <- seg.live - 1;
          t.node_ty.(node) <- -1;
          if t.node_phys.(node) >= 0 then nodes.dead <- t.node_phys.(node) :: nodes.dead;
          removed_nodes := true;
          node_churn := true
      | Delta.Add_edge { etype; src; dst } ->
          let e = t.next_edge in
          t.next_edge <- e + 1;
          t.edge_ty <- grow t.edge_ty t.next_edge (-1);
          t.edge_src <- grow t.edge_src t.next_edge 0;
          t.edge_dst <- grow t.edge_dst t.next_edge 0;
          seg_push t.eseg.(etype) e;
          t.edge_ty.(e) <- etype;
          t.edge_src.(e) <- src;
          t.edge_dst.(e) <- dst;
          edges.added.(etype) <- e :: edges.added.(etype)
      | Delta.Remove_edge { edge } ->
          if edge < next_edge0 then begin
            let start, count = G.edges_of_type old.graph t.edge_ty.(edge) in
            edges.dead <- position old.edge_stable edge start (start + count) :: edges.dead
          end;
          kill_edge t edge
      | Delta.Set_feat { node; feat } -> writes := (node, feat) :: !writes)
    d.Delta.ops;
  if !removed_nodes then begin
    let doomed e =
      t.edge_ty.(e) >= 0 && (t.node_ty.(t.edge_src.(e)) < 0 || t.node_ty.(t.edge_dst.(e)) < 0)
    in
    Array.iteri
      (fun i e ->
        if doomed e then begin
          kill_edge t e;
          edges.dead <- i :: edges.dead
        end)
      old.edge_stable;
    for e = next_edge0 to t.next_edge - 1 do
      if doomed e then kill_edge t e
    done
  end;
  (!node_churn, List.rev !writes, nodes, edges)

let apply t (d : Delta.t) =
  match validate t d with
  | exception Reject msg ->
      t.c_rejected <- t.c_rejected + 1;
      Error msg
  | () ->
      let node_churn, writes, nodes, edges = commit t d in
      t.c_deltas <- t.c_deltas + 1;
      t.c_ops <- t.c_ops + Delta.size d;
      let over segs caps = Array.exists2 (fun s cap -> s.live > cap) segs caps in
      let node_over = over t.nseg t.ncap and edge_over = over t.eseg t.ecap in
      let overflow = node_over || edge_over in
      let compactions = ref 0 in
      let sweep ty force s =
        let over = s.len > 0 && float_of_int (s.len - s.live) /. float_of_int s.len > compact_threshold in
        if (force || over) && seg_compact ty s then incr compactions
      in
      (* an epoch boundary force-compacts every segment; in slack, only
         garbage past the threshold is swept.  Compaction preserves the
         live order, so it never moves a physical id. *)
      Array.iter (sweep t.node_ty overflow) t.nseg;
      Array.iter (sweep t.edge_ty overflow) t.eseg;
      t.c_compacted <- t.c_compacted + !compactions;
      if overflow then begin
        (* epoch boundary: re-derive capacities; the snapshot below gets
           fresh features and a rebuilt CSR.  Stable ids survive, so
           old->new maps stay valid (and monotone) across the boundary. *)
        t.cur_epoch <- t.cur_epoch + 1;
        t.c_epochs <- t.c_epochs + 1;
        if node_over then t.c_node_overflows <- t.c_node_overflows + 1;
        if edge_over then t.c_edge_overflows <- t.c_edge_overflows + 1;
        derive_caps t;
        build_cap_graph t
      end;
      let kept, node_map, edge_map, csr_patched_rows, csr_rebuilt =
        derive t ~fresh:(overflow || node_churn) ~nodes ~edges ~writes
      in
      if csr_rebuilt then begin
        t.c_rebuilds <- t.c_rebuilds + 1;
        if not overflow then t.c_churn_rebuilds <- t.c_churn_rebuilds + 1
      end;
      t.c_patched <- t.c_patched + csr_patched_rows;
      Ok
        {
          epoch_changed = overflow;
          structural = Delta.structural d;
          csr_patched_rows;
          csr_rebuilt;
          compactions = !compactions;
          node_map;
          feature_rows = (if kept then Some (written_rows t writes) else None);
          edge_map;
        }

let snapshot t = t.snap

let view t =
  {
    Delta.metagraph = t.meta;
    feat_dim = t.fdim;
    live_nodes = (fun nt -> seg_live_ids t.node_ty t.nseg.(nt));
    live_edges =
      (fun et ->
        Array.map
          (fun e -> (e, t.edge_src.(e), t.edge_dst.(e)))
          (seg_live_ids t.edge_ty t.eseg.(et)));
  }

let capacity_graph t = t.cap_graph
let node_capacity t nt = t.ncap.(nt)
let edge_capacity t et = t.ecap.(et)
let epoch t = t.cur_epoch
let version t = t.cur_version
let live_nodes t = Array.fold_left (fun acc s -> acc + s.live) 0 t.nseg
let live_edges t = Array.fold_left (fun acc s -> acc + s.live) 0 t.eseg

let node_of_stable t s =
  if s >= 0 && s < t.next_node && t.node_phys.(s) >= 0 then Some t.node_phys.(s) else None

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
