type t = {
  num_pairs : int;
  row_of_edge : int array;
  etype_ptr : int array;
  pair_src : int array;
}

(* Edges are sorted by etype, so each type is one contiguous sweep.  One
   node-indexed stamp array, tagged with the type that last saw the node,
   replaces a hash table per type: a node's row is valid only while its
   stamp equals the current type.  Pairs keep their first-occurrence order
   within each type. *)
let build_on endpoints (g : Hetgraph.t) =
  let num_et = Hetgraph.num_etypes g in
  let row_of_edge = Array.make g.num_edges (-1) in
  let etype_ptr = Array.make (num_et + 1) 0 in
  let pair_src = Array.make g.num_edges 0 in
  let stamp = Array.make g.num_nodes (-1) and row = Array.make g.num_nodes 0 in
  let next = ref 0 in
  for e = 0 to num_et - 1 do
    etype_ptr.(e) <- !next;
    let start, count = Hetgraph.edges_of_type g e in
    for i = start to start + count - 1 do
      let s = endpoints.(i) in
      if stamp.(s) <> e then begin
        stamp.(s) <- e;
        row.(s) <- !next;
        pair_src.(!next) <- s;
        incr next
      end;
      row_of_edge.(i) <- row.(s)
    done
  done;
  etype_ptr.(num_et) <- !next;
  { num_pairs = !next; row_of_edge; etype_ptr; pair_src = Array.sub pair_src 0 !next }

let build (g : Hetgraph.t) = build_on g.src g

let build_dst (g : Hetgraph.t) = build_on g.dst g

let ratio (g : Hetgraph.t) t =
  if g.num_edges = 0 then 1.0 else float_of_int t.num_pairs /. float_of_int g.num_edges

let etype_of_pair t p =
  if p < 0 || p >= t.num_pairs then invalid_arg "Compact_map.etype_of_pair: out of range";
  let lo = ref 0 and hi = ref (Array.length t.etype_ptr - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.etype_ptr.(mid) <= p then lo := mid else hi := mid
  done;
  !lo
