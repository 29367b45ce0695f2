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

(* Greedy BFS growth: returns the owner array.  The frontier is a
   max-heap of (gain, node) entries packed into one int, highest gain
   first and ties to the lowest parent id; every gain increment pushes a
   fresh entry, so an entry whose node is owned or whose gain has since
   grown is stale and skipped when it surfaces. *)
let assign_owners ~slack ~parts (g : G.t) =
  let n = g.G.num_nodes in
  let row_ptr, adj = undirected_adj g in
  let owner = Array.make n (-1) in
  (* gain.(v) = edges between v and the partition currently growing *)
  let gain = Array.make n 0 in
  (* at most one push per incident edge end, per partition *)
  let heap = Array.make (max 1 (Array.length adj)) 0 in
  let size = ref 0 in
  let pack v = (gain.(v) * n) + (n - 1 - v) in
  let push key =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) < key do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- key
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) > heap.(l) then l + 1 else l in
        if heap.(c) > last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
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
    size := 0;
    let members = ref 0 in
    let absorb v =
      owner.(v) <- p;
      incr members;
      incr assigned;
      for k = row_ptr.(v) to row_ptr.(v + 1) - 1 do
        let u = adj.(k) in
        if owner.(u) < 0 then begin
          gain.(u) <- gain.(u) + 1;
          push (pack u)
        end
      done
    in
    (* max gain, ties to the lowest parent id; -1 once only stale
       entries are left *)
    let rec pick_frontier () =
      if !size = 0 then -1
      else
        let key = pop () in
        let v = n - 1 - (key mod n) in
        if owner.(v) < 0 && key / n = gain.(v) then v else pick_frontier ()
    in
    let fresh_seed () =
      while !next_seed < n && owner.(!next_seed) >= 0 do
        incr next_seed
      done;
      !next_seed
    in
    let continue = ref (cap > 0) in
    while !continue do
      let v = pick_frontier () in
      let v = if v >= 0 then v else if !members < target then fresh_seed () else n in
      (* beyond the even-split target, only BFS-connected growth (the slack
         region trades balance for cut; a fresh seed gains nothing) *)
      if v < n then absorb v else continue := false;
      if !members >= cap then continue := false
    done;
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
