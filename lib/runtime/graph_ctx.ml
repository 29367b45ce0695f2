module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Compact_map = Hector_graph.Compact_map
module Materialization = Hector_core.Materialization
module Ir = Hector_core.Inter_ir

(* Each derived encoding is built on first request and kept: a sampled
   block served by a U plan never pays for compaction maps it does not
   read.  A plain mutable slot rather than [Lazy.t], whose concurrent
   forcing raises; callers force on the owning domain anyway. *)
type t = {
  graph : Hetgraph.t;
  mutable in_csr : Csr.t option;
  mutable compact_src : Compact_map.t option;
  mutable compact_dst : Compact_map.t option;
  mutable rep_src : int array option;
  mutable rep_dst : int array option;
  mutable pair_rep_src : int array option;
  mutable pair_rep_dst : int array option;
  mutable edge_offsets : int array option;
  mutable node_offsets : int array option;
}

let create graph =
  {
    graph;
    in_csr = None;
    compact_src = None;
    compact_dst = None;
    rep_src = None;
    rep_dst = None;
    pair_rep_src = None;
    pair_rep_dst = None;
    edge_offsets = None;
    node_offsets = None;
  }

let graph t = t.graph

(* The encoding in a slot, built by [build] on first request. *)
let memo get set build t =
  match get t with
  | Some x -> x
  | None ->
      let x = build t in
      set t x;
      x

let in_csr = memo (fun t -> t.in_csr) (fun t c -> t.in_csr <- Some c) (fun t -> Csr.incoming t.graph)
let compact_src =
  memo (fun t -> t.compact_src) (fun t c -> t.compact_src <- Some c) (fun t -> Compact_map.build t.graph)

let compact_dst =
  memo (fun t -> t.compact_dst) (fun t c -> t.compact_dst <- Some c) (fun t -> Compact_map.build_dst t.graph)

(* [pair_rep.(p)] is the first edge of compact row [p], its
   representative: a recorded pair loop runs there once per pair.
   [rep.(e)] is the representative of [e]'s row: an edge-space gather
   computes only the rows with [rep.(e) = e] and copies the rest. *)
let pair_representatives (cm : Compact_map.t) =
  let first = Array.make cm.Compact_map.num_pairs (-1) in
  Array.iteri (fun e row -> if first.(row) < 0 then first.(row) <- e) cm.Compact_map.row_of_edge;
  first

let pair_rep_src =
  memo (fun t -> t.pair_rep_src) (fun t r -> t.pair_rep_src <- Some r) (fun t -> pair_representatives (compact_src t))

let pair_rep_dst =
  memo (fun t -> t.pair_rep_dst) (fun t r -> t.pair_rep_dst <- Some r) (fun t -> pair_representatives (compact_dst t))

let representatives pairs (cm : Compact_map.t) = Array.map (fun row -> pairs.(row)) cm.Compact_map.row_of_edge

let rep_src =
  memo (fun t -> t.rep_src) (fun t r -> t.rep_src <- Some r) (fun t ->
      representatives (pair_rep_src t) (compact_src t))

let rep_dst =
  memo (fun t -> t.rep_dst) (fun t r -> t.rep_dst <- Some r) (fun t ->
      representatives (pair_rep_dst t) (compact_dst t))

(* [offsets.(r)] is the first id of type [r], [offsets.(types)] the
   total: the segment list of a segmented GEMM. *)
let type_offsets types range_of total =
  Array.init (types + 1) (fun r -> if r = types then total else fst (range_of r))

let offsets t = function
  | Materialization.Rows_edges -> (
      match t.edge_offsets with
      | Some o -> o
      | None ->
          let g = t.graph in
          let o = type_offsets (Hetgraph.num_etypes g) (Hetgraph.edges_of_type g) g.Hetgraph.num_edges in
          t.edge_offsets <- Some o;
          o)
  | Materialization.Rows_nodes -> (
      match t.node_offsets with
      | Some o -> o
      | None ->
          let g = t.graph in
          let o = type_offsets (Hetgraph.num_ntypes g) (Hetgraph.nodes_of_type g) g.Hetgraph.num_nodes in
          t.node_offsets <- Some o;
          o)
  | Materialization.Rows_compact_src -> (compact_src t).Compact_map.etype_ptr
  | Materialization.Rows_compact_dst -> (compact_dst t).Compact_map.etype_ptr

let rows_of_space t = function
  | Materialization.Rows_nodes -> t.graph.Hetgraph.num_nodes
  | Materialization.Rows_edges -> t.graph.Hetgraph.num_edges
  | Materialization.Rows_compact_src -> (compact_src t).Compact_map.num_pairs
  | Materialization.Rows_compact_dst -> (compact_dst t).Compact_map.num_pairs

(* Row [i] of an edge-space tensor is fed by node [ids.(i)]: the graph's
   own endpoint columns for edge rows, the pair columns for compact rows.
   A relation's rows are a contiguous range, so one segmented GEMM reads
   this column whole — no per-relation copy. *)
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

let slice_count t = function
  | Ir.By_etype -> Hetgraph.num_etypes t.graph
  | Ir.By_ntype | Ir.By_src_ntype | Ir.By_dst_ntype ->
      Hetgraph.num_ntypes t.graph
  | Ir.Shared -> 1

let weight_shape t (program : Ir.program) name =
  match Ir.find_decl program name with
  | Some (Ir.Weight_mat { slice; rows; cols; _ }) -> [| slice_count t slice; rows; cols |]
  | Some (Ir.Weight_vec { slice; dim; _ }) -> [| slice_count t slice; dim |]
  | _ -> invalid_arg (Printf.sprintf "Graph_ctx.weight_shape: %S is not a weight of %s" name program.Ir.name)

(* Product slice [s] is relation [s]; its left factor is sliced by the
   relation's source or destination node type (or shares one slice). *)
let factor_slice t left_slice ~slices s =
  let mg = t.graph.Hetgraph.metagraph in
  let nt =
    match left_slice with
    | Ir.By_src_ntype -> Hector_graph.Metagraph.src_ntype mg s
    | Ir.By_dst_ntype -> Hector_graph.Metagraph.dst_ntype mg s
    | Ir.By_ntype | Ir.By_etype -> s
    | Ir.Shared -> 0
  in
  min nt (slices - 1)
