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
  edge_map : int array;
}

type counters = {
  deltas : int;
  ops : int;
  epochs : int;
  rebuilds : int;
  patched_rows : int;
  compacted : int;
  rejected_deltas : int;
}

let default_slack = 0.5
let default_compact = 0.25

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
  compact : float;
  nseg : seg array;
  eseg : seg array;
  mutable node_ty : int array;  (* stable node -> ntype *)
  mutable node_phys : int array;  (* stable node -> physical id in [snap] *)
  mutable edge_ty : int array;  (* stable edge -> etype *)
  mutable edge_src : int array;  (* stable edge -> stable source node *)
  mutable edge_dst : int array;
  mutable edge_phys : int array;  (* stable edge -> physical id in [snap] *)
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
  mutable c_rebuilds : int;
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

(* The warm-up graph of an epoch: every type at capacity.  Placeholder
   edges connect the first node of the relation's endpoint types — their
   pattern is irrelevant, only the per-type counts matter to whoever
   sizes plans, slabs and staging against it. *)
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
      Array.fill src !pos cap off.(Metagraph.src_ntype t.meta et);
      Array.fill dst !pos cap off.(Metagraph.dst_ntype t.meta et);
      Array.fill etype !pos cap et;
      pos := !pos + cap)
    t.ecap;
  t.cap_graph <-
    G.of_columns ~name:(Printf.sprintf "%s#e%d" t.gname t.cur_epoch) ~metagraph:t.meta ~node_type
      ~src ~dst ~etype ()

let live_ids ty segs = Array.concat (Array.to_list (Array.map (seg_live_ids ty) segs))

(* Point [phys] at the new numbering [ids]; return the old->new map of
   [old_ids] ([-1] for ids that left). *)
let renumber phys ~old_ids ids =
  Array.iter (fun s -> phys.(s) <- -1) old_ids;
  Array.iteri (fun i s -> phys.(s) <- i) ids;
  Array.map (fun s -> phys.(s)) old_ids

(* The delta's feature rows, in op order, into [features] by the current
   numbering (rows of nodes the delta also removed are dropped). *)
let write_rows t features writes =
  let data, off = Tensor.storage features in
  List.iter
    (fun (s, row) ->
      let p = t.node_phys.(s) in
      if p >= 0 then Array.blit row 0 data (off + (p * t.fdim)) t.fdim)
    writes

(* Rebuild the physical snapshot from the live state.  Features are
   gathered from the previous snapshot through the old physical ids (new
   nodes start at zero), then the delta's rows are written.  Survivors
   keep their relative order, so the gather moves whole runs of rows that
   stay consecutive.  [patch_csr] decides how the incoming CSR is
   produced; the caller knows whether the node set survived unchanged
   (patching legal) or not. *)
let rebuild t ~patch_csr ~writes =
  let old = t.snap in
  let node_stable = live_ids t.node_ty t.nseg in
  let n = Array.length node_stable in
  let features = Tensor.create_uninit [| n; t.fdim |] in
  let src, so = Tensor.storage old.features and dst, d0 = Tensor.storage features in
  let old_row i = t.node_phys.(node_stable.(i)) in
  let i = ref 0 in
  while !i < n do
    let p = old_row !i and j = ref (!i + 1) in
    while !j < n && (if p < 0 then old_row !j < 0 else old_row !j = p + !j - !i) do
      incr j
    done;
    let at = d0 + (!i * t.fdim) and len = (!j - !i) * t.fdim in
    if p < 0 then Array.fill dst at len 0.0 else Array.blit src (so + (p * t.fdim)) dst at len;
    i := !j
  done;
  let node_map = renumber t.node_phys ~old_ids:old.node_stable node_stable in
  write_rows t features writes;
  let edge_stable = live_ids t.edge_ty t.eseg in
  let edge_map = renumber t.edge_phys ~old_ids:old.edge_stable edge_stable in
  let graph =
    G.of_columns ~name:t.gname ~metagraph:t.meta
      ~node_type:(Array.map (fun s -> t.node_ty.(s)) node_stable)
      ~src:(Array.map (fun e -> t.node_phys.(t.edge_src.(e))) edge_stable)
      ~dst:(Array.map (fun e -> t.node_phys.(t.edge_dst.(e))) edge_stable)
      ~etype:(Array.map (fun e -> t.edge_ty.(e)) edge_stable) ()
  in
  let csr, patched_rows, rebuilt =
    if patch_csr then begin
      let csr, rows = Csr.patch_incoming old.csr ~old_graph:old.graph ~graph ~edge_map in
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
  (node_map, edge_map, patched_rows, rebuilt)

let create ?(name = "stream") ?slack ?compact ~graph ~features () =
  let knobs = Hector_runtime.Knobs.current () in
  let slack =
    match slack with
    | Some s -> s
    | None -> ( match knobs.Hector_runtime.Knobs.stream_slack with Some s -> s | None -> default_slack)
  in
  let compact =
    match compact with
    | Some c -> c
    | None -> (
        match knobs.Hector_runtime.Knobs.stream_compact with
        | Some c -> c
        | None -> default_compact)
  in
  if slack < 0.0 || not (Float.is_finite slack) then
    invalid_arg "Mutable_graph.create: slack must be a finite non-negative float";
  if compact <= 0.0 || compact > 1.0 then
    invalid_arg "Mutable_graph.create: compact threshold must be in (0, 1]";
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
      compact;
      nseg;
      eseg;
      node_ty = Array.copy graph.G.node_type;
      node_phys = Array.init n Fun.id;
      edge_ty = Array.copy graph.G.etype;
      edge_src = Array.copy graph.G.src;
      edge_dst = Array.copy graph.G.dst;
      edge_phys = Array.init m Fun.id;
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
      c_rebuilds = 0;
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

(* Commit a validated delta to the live arrays; returns whether nodes
   changed and the delta's feature rows in op order. *)
let commit t (d : Delta.t) =
  let node_churn = ref false and writes = ref [] in
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
          Option.iter (fun f -> writes := (s, f) :: !writes) feat;
          node_churn := true
      | Delta.Remove_node { node } ->
          let seg = t.nseg.(t.node_ty.(node)) in
          seg.live <- seg.live - 1;
          t.node_ty.(node) <- -1;
          for e = 0 to t.next_edge - 1 do
            if t.edge_ty.(e) >= 0 && (t.edge_src.(e) = node || t.edge_dst.(e) = node) then
              kill_edge t e
          done;
          node_churn := true
      | Delta.Add_edge { etype; src; dst } ->
          let e = t.next_edge in
          t.next_edge <- e + 1;
          t.edge_ty <- grow t.edge_ty t.next_edge (-1);
          t.edge_src <- grow t.edge_src t.next_edge 0;
          t.edge_dst <- grow t.edge_dst t.next_edge 0;
          t.edge_phys <- grow t.edge_phys t.next_edge (-1);
          seg_push t.eseg.(etype) e;
          t.edge_ty.(e) <- etype;
          t.edge_src.(e) <- src;
          t.edge_dst.(e) <- dst
      | Delta.Remove_edge { edge } -> kill_edge t edge
      | Delta.Set_feat { node; feat } -> writes := (node, feat) :: !writes)
    d.Delta.ops;
  (!node_churn, List.rev !writes)

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
      let overflow =
        Array.exists2 (fun s cap -> s.live > cap) t.nseg t.ncap
        || Array.exists2 (fun s cap -> s.live > cap) t.eseg t.ecap
      in
      let compactions = ref 0 in
      let sweep ty force s =
        let over = s.len > 0 && float_of_int (s.len - s.live) /. float_of_int s.len > t.compact in
        if (force || over) && seg_compact ty s then incr compactions
      in
      (* an epoch boundary force-compacts every segment; in slack, only
         garbage past the threshold is swept *)
      Array.iter (sweep t.node_ty overflow) t.nseg;
      Array.iter (sweep t.edge_ty overflow) t.eseg;
      t.c_compacted <- t.c_compacted + !compactions;
      let node_map, edge_map, csr_patched_rows, csr_rebuilt =
        if overflow || structural then begin
          if overflow then begin
            (* epoch boundary: re-derive capacities and rebuild everything.
               Stable ids survive, so old->new maps stay valid (and
               monotone) across the boundary. *)
            t.cur_epoch <- t.cur_epoch + 1;
            t.c_epochs <- t.c_epochs + 1;
            derive_caps t;
            build_cap_graph t
          end;
          (* compaction preserves the live order, so the node set (and its
             physical numbering) changed iff the delta touched nodes —
             in-slack edge-only deltas may patch the CSR row-wise *)
          rebuild t ~patch_csr:(not (overflow || node_churn)) ~writes
        end
        else begin
          (* feature-only: physical graph and CSR are untouched; the new
             snapshot copies the feature matrix and writes the delta's rows *)
          let old = t.snap in
          let features = Tensor.copy old.features in
          write_rows t features writes;
          t.cur_version <- t.cur_version + 1;
          t.snap <- { old with features; version = t.cur_version };
          let id a = Array.init (Array.length a) Fun.id in
          (id old.node_stable, id old.edge_stable, 0, false)
        end
      in
      Ok
        {
          epoch_changed = overflow;
          structural;
          csr_patched_rows;
          csr_rebuilt;
          compactions = !compactions;
          node_map;
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
let name t = t.gname
let feat_dim t = t.fdim
let metagraph t = t.meta
let stable_of_node t phys = t.snap.node_stable.(phys)

let node_of_stable t s =
  if s >= 0 && s < t.next_node && t.node_phys.(s) >= 0 then Some t.node_phys.(s) else None

let counters t =
  {
    deltas = t.c_deltas;
    ops = t.c_ops;
    epochs = t.c_epochs;
    rebuilds = t.c_rebuilds;
    patched_rows = t.c_patched;
    compacted = t.c_compacted;
    rejected_deltas = t.c_rejected;
  }
