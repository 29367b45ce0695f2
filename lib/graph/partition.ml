module G = Hetgraph

type part = {
  sub : Hetgraph.t;
  origin_node : int array;
  origin_edge : int array;
  owned : bool array;
  owned_nodes : int array;
  halo : (int * (int * int) array) array;
}

type t = {
  graph : Hetgraph.t;
  parts : int;
  slack : float;
  owner : int array;
  members : part array;
  cut_edges : int;
  cut_by_etype : int array;
}

(* Undirected adjacency as a flat CSR over both edge directions: the BFS
   growth cares about connectivity, not direction. *)
let undirected_adj (g : G.t) =
  let deg = Array.make (g.G.num_nodes + 1) 0 in
  for e = 0 to g.G.num_edges - 1 do
    deg.(g.G.src.(e) + 1) <- deg.(g.G.src.(e) + 1) + 1;
    deg.(g.G.dst.(e) + 1) <- deg.(g.G.dst.(e) + 1) + 1
  done;
  for v = 1 to g.G.num_nodes do
    deg.(v) <- deg.(v) + deg.(v - 1)
  done;
  let adj = Array.make (2 * g.G.num_edges) 0 in
  let cursor = Array.copy deg in
  for e = 0 to g.G.num_edges - 1 do
    let s = g.G.src.(e) and d = g.G.dst.(e) in
    adj.(cursor.(s)) <- d;
    cursor.(s) <- cursor.(s) + 1;
    adj.(cursor.(d)) <- s;
    cursor.(d) <- cursor.(d) + 1
  done;
  (deg, adj)

(* Greedy BFS growth: returns the owner array. *)
let assign_owners ~slack ~parts (g : G.t) =
  let n = g.G.num_nodes in
  let row_ptr, adj = undirected_adj g in
  let owner = Array.make n (-1) in
  (* gain.(v) = edges between v and the partition currently growing *)
  let gain = Array.make n 0 in
  let in_frontier = Array.make n false in
  let next_seed = ref 0 in
  let assigned = ref 0 in
  let slack_cap =
    int_of_float (floor ((1.0 +. slack) *. float_of_int n /. float_of_int parts))
  in
  for p = 0 to parts - 1 do
    let remaining = n - !assigned and rparts = parts - p in
    let target = (remaining + rparts - 1) / rparts in
    (* never starve a later partition: each must get at least one node *)
    let cap = min (remaining - (rparts - 1)) (max target slack_cap) in
    let frontier = ref [] in
    let size = ref 0 in
    let absorb v =
      owner.(v) <- p;
      incr size;
      incr assigned;
      for k = row_ptr.(v) to row_ptr.(v + 1) - 1 do
        let u = adj.(k) in
        if owner.(u) < 0 then begin
          gain.(u) <- gain.(u) + 1;
          if not in_frontier.(u) then begin
            in_frontier.(u) <- true;
            frontier := u :: !frontier
          end
        end
      done
    in
    let pick_frontier () =
      (* max gain, ties to the lowest parent id; drop stale entries *)
      let best = ref (-1) in
      let live = ref [] in
      List.iter
        (fun u ->
          if owner.(u) < 0 then begin
            live := u :: !live;
            if !best < 0 || gain.(u) > gain.(!best) || (gain.(u) = gain.(!best) && u < !best)
            then best := u
          end
          else in_frontier.(u) <- false)
        !frontier;
      frontier := List.filter (fun u -> u <> !best) !live;
      if !best >= 0 then in_frontier.(!best) <- false;
      !best
    in
    let fresh_seed () =
      while !next_seed < n && owner.(!next_seed) >= 0 do
        incr next_seed
      done;
      !next_seed
    in
    let continue = ref (cap > 0) in
    while !continue do
      let v = if !frontier = [] then -1 else pick_frontier () in
      let v = if v >= 0 then v else if !size < target then fresh_seed () else n in
      (* beyond the even-split target, only BFS-connected growth (the slack
         region trades balance for cut; a fresh seed gains nothing) *)
      if v < n then absorb v else continue := false;
      if !size >= cap then continue := false
    done;
    (* clear gains touched by this partition's frontier *)
    List.iter
      (fun u ->
        gain.(u) <- 0;
        in_frontier.(u) <- false)
      !frontier;
    Array.iteri (fun v o -> if o < 0 then gain.(v) <- 0) owner
  done;
  owner

let partition ?(slack = 0.0) ~parts (g : G.t) =
  if parts < 1 then invalid_arg "Partition.partition: parts must be >= 1";
  if parts > g.G.num_nodes then
    invalid_arg
      (Printf.sprintf "Partition.partition: %d partitions for %d nodes" parts g.G.num_nodes);
  if not (slack >= 0.0) then
    invalid_arg (Printf.sprintf "Partition.partition: slack must be non-negative (got %g)" slack);
  let owner = assign_owners ~slack ~parts g in
  (* per-partition members: owned nodes, assigned edges (dst-owned), halo
     sources; edges visited in parent id order so induce keeps it *)
  let node_lists = Array.make parts [] and edge_lists = Array.make parts [] in
  let member = Array.init parts (fun _ -> Array.make g.G.num_nodes false) in
  for v = g.G.num_nodes - 1 downto 0 do
    let p = owner.(v) in
    member.(p).(v) <- true;
    node_lists.(p) <- v :: node_lists.(p)
  done;
  for e = g.G.num_edges - 1 downto 0 do
    let p = owner.(g.G.dst.(e)) in
    edge_lists.(p) <- e :: edge_lists.(p)
  done;
  (* halo sources, appended after the owned nodes (induce re-sorts anyway) *)
  Array.iteri
    (fun p edges ->
      List.iter
        (fun e ->
          let s = g.G.src.(e) in
          if not member.(p).(s) then begin
            member.(p).(s) <- true;
            node_lists.(p) <- s :: node_lists.(p)
          end)
        edges)
    edge_lists;
  let induced =
    Array.init parts (fun p ->
        G.induce
          ~name:(Printf.sprintf "%s_part%d" g.G.name p)
          g
          ~nodes:(Array.of_list node_lists.(p))
          ~edges:(Array.of_list edge_lists.(p)))
  in
  (* parent id → local id, per partition (origin inversion, Compact_map style) *)
  let local_id =
    Array.map
      (fun (ind : G.induced) ->
        let h = Hashtbl.create (Array.length ind.G.origin_node) in
        Array.iteri (fun i v -> Hashtbl.replace h v i) ind.G.origin_node;
        h)
      induced
  in
  let members =
    Array.init parts (fun p ->
        let ind = induced.(p) in
        let owned = Array.map (fun v -> owner.(v) = p) ind.G.origin_node in
        let owned_nodes =
          ind.G.origin_node |> Array.to_list
          |> List.mapi (fun i v -> (i, v))
          |> List.filter (fun (_, v) -> owner.(v) = p)
          |> List.map fst |> Array.of_list
        in
        let by_peer = Array.make parts [] in
        (* descending local id so each peer's pair list ends up ascending *)
        for i = Array.length ind.G.origin_node - 1 downto 0 do
          let v = ind.G.origin_node.(i) in
          let q = owner.(v) in
          if q <> p then by_peer.(q) <- (i, Hashtbl.find local_id.(q) v) :: by_peer.(q)
        done;
        let halo = ref [] in
        for q = parts - 1 downto 0 do
          if by_peer.(q) <> [] then halo := (q, Array.of_list by_peer.(q)) :: !halo
        done;
        {
          sub = ind.G.sub;
          origin_node = ind.G.origin_node;
          origin_edge = ind.G.origin_edge;
          owned;
          owned_nodes;
          halo = Array.of_list !halo;
        })
  in
  let cut_by_etype = Array.make (G.num_etypes g) 0 in
  let cut_edges = ref 0 in
  for e = 0 to g.G.num_edges - 1 do
    if owner.(g.G.src.(e)) <> owner.(g.G.dst.(e)) then begin
      incr cut_edges;
      cut_by_etype.(g.G.etype.(e)) <- cut_by_etype.(g.G.etype.(e)) + 1
    end
  done;
  { graph = g; parts; slack; owner; members; cut_edges = !cut_edges; cut_by_etype }

type rebalance_stats = {
  parts_rebuilt : int;
  parts_reused : int;
  halos_patched : int;
  full_rebuild : bool;
}

(* Incremental rebalance across a graph mutation (the streaming subsystem's
   delta path).  Surviving nodes keep their owner; inserted nodes join the
   partition owning most of their already-assigned neighbors (ties to the
   least-loaded, then lowest id).  A partition whose member set is
   untouched — every member node and assigned edge survived and it gained
   nothing — reuses its induced subgraph verbatim with origin maps
   renumbered; only partitions that actually changed are re-induced, and
   halo maps are recomputed only where a side of the pairing changed.  The
   maps must be monotone (tombstone-compaction order-preserving), which is
   what keeps an untouched partition's local numbering stable.  If the
   preserved assignment drifts past [max_balance] times the even share,
   fall back to a full repartition. *)
let rebalance old ~(graph : G.t) ~node_map ~edge_map ?(max_balance = 2.0) () =
  let og = old.graph in
  if Array.length node_map <> og.G.num_nodes then
    invalid_arg "Partition.rebalance: node_map length mismatch";
  if Array.length edge_map <> og.G.num_edges then
    invalid_arg "Partition.rebalance: edge_map length mismatch";
  if G.num_etypes graph <> G.num_etypes og then
    invalid_arg "Partition.rebalance: metagraph shape changed";
  let check_map label map limit =
    let last = ref (-1) in
    Array.iter
      (fun m ->
        if m >= 0 then begin
          if m <= !last || m >= limit then
            invalid_arg
              (Printf.sprintf "Partition.rebalance: %s must be monotone and in range" label);
          last := m
        end)
      map
  in
  check_map "node_map" node_map graph.G.num_nodes;
  check_map "edge_map" edge_map graph.G.num_edges;
  let parts = old.parts in
  let n = graph.G.num_nodes in
  if parts > n then invalid_arg "Partition.rebalance: fewer nodes than partitions";
  let owner = Array.make n (-1) in
  Array.iteri (fun v m -> if m >= 0 then owner.(m) <- old.owner.(v)) node_map;
  let counts = Array.make parts 0 in
  Array.iter (fun o -> if o >= 0 then counts.(o) <- counts.(o) + 1) owner;
  let row_ptr, adj = undirected_adj graph in
  let tally = Array.make parts 0 in
  for v = 0 to n - 1 do
    if owner.(v) < 0 then begin
      Array.fill tally 0 parts 0;
      for k = row_ptr.(v) to row_ptr.(v + 1) - 1 do
        let o = owner.(adj.(k)) in
        if o >= 0 then tally.(o) <- tally.(o) + 1
      done;
      let best = ref 0 in
      for p = 1 to parts - 1 do
        if
          tally.(p) > tally.(!best)
          || (tally.(p) = tally.(!best) && counts.(p) < counts.(!best))
        then best := p
      done;
      owner.(v) <- !best;
      counts.(!best) <- counts.(!best) + 1
    end
  done;
  let ideal = float_of_int n /. float_of_int parts in
  if max_balance < 1.0 then invalid_arg "Partition.rebalance: max_balance must be >= 1";
  if float_of_int (Array.fold_left max 0 counts) > max_balance *. ideal then
    ( partition ~slack:old.slack ~parts graph,
      { parts_rebuilt = parts; parts_reused = 0; halos_patched = 0; full_rebuild = true } )
  else begin
    (* membership sweep, identical to [partition]'s *)
    let node_lists = Array.make parts [] and edge_lists = Array.make parts [] in
    let member = Array.init parts (fun _ -> Array.make n false) in
    for v = n - 1 downto 0 do
      let p = owner.(v) in
      member.(p).(v) <- true;
      node_lists.(p) <- v :: node_lists.(p)
    done;
    for e = graph.G.num_edges - 1 downto 0 do
      let p = owner.(graph.G.dst.(e)) in
      edge_lists.(p) <- e :: edge_lists.(p)
    done;
    Array.iteri
      (fun p edges ->
        List.iter
          (fun e ->
            let s = graph.G.src.(e) in
            if not member.(p).(s) then begin
              member.(p).(s) <- true;
              node_lists.(p) <- s :: node_lists.(p)
            end)
          edges)
      edge_lists;
    (* a partition is untouched iff every member survived and it gained
       nothing: then its new member set is exactly the renumbered old one *)
    let changed = Array.make parts false in
    Array.iteri
      (fun p (m : part) ->
        let ok =
          Array.length m.origin_node = List.length node_lists.(p)
          && Array.length m.origin_edge = List.length edge_lists.(p)
          && Array.for_all (fun v -> node_map.(v) >= 0) m.origin_node
          && Array.for_all (fun e -> edge_map.(e) >= 0) m.origin_edge
        in
        changed.(p) <- not ok)
      old.members;
    let induced =
      Array.init parts (fun p ->
          if changed.(p) then
            Some
              (G.induce
                 ~name:(Printf.sprintf "%s_part%d" graph.G.name p)
                 graph
                 ~nodes:(Array.of_list node_lists.(p))
                 ~edges:(Array.of_list edge_lists.(p)))
          else None)
    in
    let origin_nodes =
      Array.init parts (fun p ->
          match induced.(p) with
          | Some ind -> ind.G.origin_node
          | None -> Array.map (fun v -> node_map.(v)) old.members.(p).origin_node)
    in
    let local_id =
      Array.map
        (fun on ->
          let h = Hashtbl.create (Array.length on) in
          Array.iteri (fun i v -> Hashtbl.replace h v i) on;
          h)
        origin_nodes
    in
    let compute_halo p (on : int array) =
      let by_peer = Array.make parts [] in
      for i = Array.length on - 1 downto 0 do
        let v = on.(i) in
        let q = owner.(v) in
        if q <> p then by_peer.(q) <- (i, Hashtbl.find local_id.(q) v) :: by_peer.(q)
      done;
      let halo = ref [] in
      for q = parts - 1 downto 0 do
        if by_peer.(q) <> [] then halo := (q, Array.of_list by_peer.(q)) :: !halo
      done;
      Array.of_list !halo
    in
    let halos_patched = ref 0 in
    let members =
      Array.init parts (fun p ->
          let on = origin_nodes.(p) in
          match induced.(p) with
          | None ->
              let m = old.members.(p) in
              (* local ids are stable, but a changed peer renumbers the far
                 side of the halo pairing *)
              let halo =
                if Array.exists (fun (q, _) -> changed.(q)) m.halo then begin
                  incr halos_patched;
                  compute_halo p on
                end
                else m.halo
              in
              {
                m with
                origin_node = on;
                origin_edge = Array.map (fun e -> edge_map.(e)) m.origin_edge;
                halo;
              }
          | Some ind ->
              let owned = Array.map (fun v -> owner.(v) = p) on in
              let owned_nodes =
                on |> Array.to_list
                |> List.mapi (fun i v -> (i, v))
                |> List.filter (fun (_, v) -> owner.(v) = p)
                |> List.map fst |> Array.of_list
              in
              {
                sub = ind.G.sub;
                origin_node = on;
                origin_edge = ind.G.origin_edge;
                owned;
                owned_nodes;
                halo = compute_halo p on;
              })
    in
    let cut_by_etype = Array.make (G.num_etypes graph) 0 in
    let cut_edges = ref 0 in
    for e = 0 to graph.G.num_edges - 1 do
      if owner.(graph.G.src.(e)) <> owner.(graph.G.dst.(e)) then begin
        incr cut_edges;
        cut_by_etype.(graph.G.etype.(e)) <- cut_by_etype.(graph.G.etype.(e)) + 1
      end
    done;
    let rebuilt = Array.fold_left (fun a c -> if c then a + 1 else a) 0 changed in
    ( {
        graph;
        parts;
        slack = old.slack;
        owner;
        members;
        cut_edges = !cut_edges;
        cut_by_etype;
      },
      {
        parts_rebuilt = rebuilt;
        parts_reused = parts - rebuilt;
        halos_patched = !halos_patched;
        full_rebuild = false;
      } )
  end

let edge_cut_fraction t =
  if t.graph.G.num_edges = 0 then 0.0
  else float_of_int t.cut_edges /. float_of_int t.graph.G.num_edges

let max_owned t =
  Array.fold_left (fun acc m -> max acc (Array.length m.owned_nodes)) 0 t.members

let balance t =
  let ideal = float_of_int t.graph.G.num_nodes /. float_of_int t.parts in
  if ideal = 0.0 then 1.0 else float_of_int (max_owned t) /. ideal

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>%d partitions of %s (%d nodes, %d edges)@," t.parts
    t.graph.G.name t.graph.G.num_nodes t.graph.G.num_edges;
  Array.iteri
    (fun p m ->
      Format.fprintf fmt "  part %d: %6d owned  %6d halo  %6d edges@," p
        (Array.length m.owned_nodes)
        (m.sub.G.num_nodes - Array.length m.owned_nodes)
        m.sub.G.num_edges)
    t.members;
  Format.fprintf fmt "edge cut: %d / %d (%.1f%%)@," t.cut_edges t.graph.G.num_edges
    (100.0 *. edge_cut_fraction t);
  Format.fprintf fmt "cut by edge type:";
  Array.iteri (fun r c -> Format.fprintf fmt " r%d=%d" r c) t.cut_by_etype;
  Format.fprintf fmt "@,balance: %.3f (max owned %d, ideal %.1f)@]" (balance t) (max_owned t)
    (float_of_int t.graph.G.num_nodes /. float_of_int t.parts)
