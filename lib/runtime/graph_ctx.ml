module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Compact_map = Hector_graph.Compact_map
module Materialization = Hector_core.Materialization

(* Each derived encoding is built on first request and kept: a sampled
   block served by a U plan never pays for compaction maps it does not
   read.  A plain mutable slot rather than [Lazy.t], whose concurrent
   forcing raises; callers force on the owning domain anyway. *)
type t = {
  graph : Hetgraph.t;
  mutable in_csr : Csr.t option;
  mutable compact_src : Compact_map.t option;
  mutable compact_dst : Compact_map.t option;
  mutable rep_src : bool array option;
  mutable rep_dst : bool array option;
}

let create graph =
  { graph; in_csr = None; compact_src = None; compact_dst = None; rep_src = None; rep_dst = None }

let graph t = t.graph

let in_csr t =
  match t.in_csr with
  | Some c -> c
  | None ->
      let c = Csr.incoming t.graph in
      t.in_csr <- Some c;
      c

let compact_src t =
  match t.compact_src with
  | Some c -> c
  | None ->
      let c = Compact_map.build t.graph in
      t.compact_src <- Some c;
      c

let compact_dst t =
  match t.compact_dst with
  | Some c -> c
  | None ->
      let c = Compact_map.build_dst t.graph in
      t.compact_dst <- Some c;
      c

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

let rep_src t =
  match t.rep_src with
  | Some r -> r
  | None ->
      let r = representatives (compact_src t) t.graph.Hetgraph.num_edges in
      t.rep_src <- Some r;
      r

let rep_dst t =
  match t.rep_dst with
  | Some r -> r
  | None ->
      let r = representatives (compact_dst t) t.graph.Hetgraph.num_edges in
      t.rep_dst <- Some r;
      r

let rows_of_space t = function
  | Materialization.Rows_nodes -> t.graph.Hetgraph.num_nodes
  | Materialization.Rows_edges -> t.graph.Hetgraph.num_edges
  | Materialization.Rows_compact_src -> (compact_src t).Compact_map.num_pairs
  | Materialization.Rows_compact_dst -> (compact_dst t).Compact_map.num_pairs

(* Row [i] of an edge-space tensor is fed by node [ids.(i)]: the graph's
   own endpoint columns for edge rows, the pair columns for compact rows.
   A relation's rows are a contiguous range, so its gather list is this
   column at the range's start — no per-relation copy. *)
let endpoint_ids t space side =
  match space with
  | Materialization.Rows_edges -> (
      match side with `Src -> t.graph.Hetgraph.src | `Dst -> t.graph.Hetgraph.dst)
  | Materialization.Rows_compact_src -> (compact_src t).Compact_map.pair_src
  | Materialization.Rows_compact_dst -> (compact_dst t).Compact_map.pair_src
  | Materialization.Rows_nodes -> invalid_arg "Graph_ctx.endpoint_ids: node space"

let compact_of_space t = function
  | Materialization.Rows_compact_src -> Some (compact_src t)
  | Materialization.Rows_compact_dst -> Some (compact_dst t)
  | Materialization.Rows_nodes | Materialization.Rows_edges -> None
