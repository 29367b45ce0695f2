module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Compact_map = Hector_graph.Compact_map
module Materialization = Hector_core.Materialization

type t = {
  graph : Hetgraph.t;
  in_csr : Csr.t;
  compact_src : Compact_map.t;
  compact_dst : Compact_map.t;
  rep_src : bool array;
  rep_dst : bool array;
  gather_ids : (Materialization.space * [ `Src | `Dst ] * int * int, int array) Hashtbl.t;
}

(* [rep.(e)] is true iff edge [e] is the first (representative) edge of its
   compact row — pair-local traversal statements execute only there. *)
let representatives (cm : Compact_map.t) num_edges =
  let seen = Array.make cm.Compact_map.num_pairs false in
  Array.init num_edges (fun e ->
      let row = cm.Compact_map.row_of_edge.(e) in
      if seen.(row) then false
      else begin
        seen.(row) <- true;
        true
      end)

let create graph =
  let compact_src = Compact_map.build graph in
  let compact_dst = Compact_map.build_dst graph in
  {
    graph;
    in_csr = Csr.incoming graph;
    compact_src;
    compact_dst;
    rep_src = representatives compact_src graph.Hetgraph.num_edges;
    rep_dst = representatives compact_dst graph.Hetgraph.num_edges;
    gather_ids = Hashtbl.create 32;
  }

let rows_of_space t = function
  | Materialization.Rows_nodes -> t.graph.Hetgraph.num_nodes
  | Materialization.Rows_edges -> t.graph.Hetgraph.num_edges
  | Materialization.Rows_compact_src -> t.compact_src.Compact_map.num_pairs
  | Materialization.Rows_compact_dst -> t.compact_dst.Compact_map.num_pairs

(* Node id feeding row [start + i] of an edge-space tensor, for the GEMM
   access schemes.  The id arrays depend only on the graph, so they are the
   §3.6 "endpoint gather list" preprocessing: built on first request and
   memoized, never rebuilt on the per-step hot path. *)
let endpoint_ids t space side (start, count) =
  let key = (space, side, start, count) in
  match Hashtbl.find_opt t.gather_ids key with
  | Some ids -> ids
  | None ->
      let ids =
        match space with
        | Materialization.Rows_edges ->
            let arr =
              match side with `Src -> t.graph.Hetgraph.src | `Dst -> t.graph.Hetgraph.dst
            in
            Array.init count (fun i -> arr.(start + i))
        | Materialization.Rows_compact_src ->
            Array.init count (fun i -> t.compact_src.Compact_map.pair_src.(start + i))
        | Materialization.Rows_compact_dst ->
            Array.init count (fun i -> t.compact_dst.Compact_map.pair_src.(start + i))
        | Materialization.Rows_nodes -> invalid_arg "Graph_ctx.endpoint_ids: node space"
      in
      Hashtbl.add t.gather_ids key ids;
      ids

let compact_of_space t = function
  | Materialization.Rows_compact_src -> Some t.compact_src
  | Materialization.Rows_compact_dst -> Some t.compact_dst
  | Materialization.Rows_nodes | Materialization.Rows_edges -> None
