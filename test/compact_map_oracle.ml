(* The compact-map builder that [Hector_graph.Compact_map.build_on]
   replaced, kept as the reference its flat stamp-array pass is tested
   against (test_graph.ml's differential property).  Every edge type gets
   a fresh hash table from endpoint to row, even an empty type, and the
   pair column is built as a list. *)

module Hetgraph = Hector_graph.Hetgraph

type t = { num_pairs : int; row_of_edge : int array; etype_ptr : int array; pair_src : int array }

let build_on endpoints (g : Hetgraph.t) =
  let num_et = Hetgraph.num_etypes g in
  let row_of_edge = Array.make g.Hetgraph.num_edges (-1) in
  let etype_ptr = Array.make (num_et + 1) 0 in
  let pair_src_rev = ref [] in
  let next = ref 0 in
  for e = 0 to num_et - 1 do
    etype_ptr.(e) <- !next;
    let start, count = Hetgraph.edges_of_type g e in
    let seen = Hashtbl.create (max 16 count) in
    for i = start to start + count - 1 do
      let s = endpoints.(i) in
      match Hashtbl.find_opt seen s with
      | Some r -> row_of_edge.(i) <- r
      | None ->
          let r = !next in
          Hashtbl.add seen s r;
          pair_src_rev := s :: !pair_src_rev;
          row_of_edge.(i) <- r;
          incr next
    done
  done;
  etype_ptr.(num_et) <- !next;
  { num_pairs = !next; row_of_edge; etype_ptr; pair_src = Array.of_list (List.rev !pair_src_rev) }

let build (g : Hetgraph.t) = build_on g.Hetgraph.src g
let build_dst (g : Hetgraph.t) = build_on g.Hetgraph.dst g
