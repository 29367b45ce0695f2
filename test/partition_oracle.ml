(* The greedy-BFS owner assignment that [Hector_graph.Partition] replaced,
   kept as the reference its heap-driven pick is tested against
   (test_dist.ml).  Each pick scans the whole frontier list for the
   highest gain (ties to the lowest parent id) and rebuilds the list
   without the stale entries: O(n · frontier). *)

module G = Hector_graph.Hetgraph

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

