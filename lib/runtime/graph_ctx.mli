(** Runtime graph context: the graph plus every derived encoding the
    generated kernels may traverse — incoming CSR, the two compact
    materialization maps of §3.1.3, their representative-edge maps and
    the per-type row offsets a segmented GEMM reads — and the weight-stack
    shapes a program's declarations take over that graph.
    The preprocessing pass of §3.6 happens on demand: {!create} only
    records the graph, and each encoding is built the first time it is
    requested, then kept.  A plan that never traverses by destination
    never pays for the CSR; a plan with no compact buffer, pair loop or
    edge-space gather never pays for the compact maps.

    The memoization is not synchronized.  Request every encoding a
    parallel region reads on the domain that owns the context, before the
    region starts ({!Exec} resolves them at step entry), so no two domains
    ever build the same encoding. *)

module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Compact_map = Hector_graph.Compact_map

type t

val create : Hetgraph.t -> t
(** A context over a graph; O(1), builds no encoding. *)

val graph : t -> Hetgraph.t

val in_csr : t -> Csr.t
(** Incoming adjacency (destination-major), built on first request. *)

val compact_src : t -> Compact_map.t
(** The (etype, src) compact map, built on first request. *)

val compact_dst : t -> Compact_map.t
(** The (etype, dst) compact map, built on first request. *)

val rep_src : t -> int array
(** Per edge: the first edge of its (etype, src) pair, its
    representative.  An edge-space forward gather of source rows computes
    only representative rows and copies the rest. *)

val rep_dst : t -> int array
(** Destination-side analogue of {!rep_src}. *)

val pair_rep_src : t -> int array
(** Per (etype, src) compact row: its first edge, the representative
    {!rep_src} maps every edge of the pair to.  The executor runs a
    traversal's recorded source pair loop there, once per pair, before the
    pass's sweep. *)

val pair_rep_dst : t -> int array
(** Destination-side analogue of {!pair_rep_src}. *)

val offsets : t -> Hector_core.Materialization.space -> int array
(** The segment list of a typed GEMM over a space, built once and kept:
    for an edge space, [offsets.(r)] is the first row of relation [r] and
    the last entry is the row count (the edge-type ranges, or the compact
    map's [etype_ptr]); for [Rows_nodes], the same over node types.
    Callers must not mutate it. *)

val rows_of_space : t -> Hector_core.Materialization.space -> int
(** Number of rows a tensor of the given space has on this graph. *)

val endpoint_ids : t -> Hector_core.Materialization.space -> [ `Src | `Dst ] -> int array
(** [endpoint_ids t space side] is the §3.6 endpoint gather list of an
    edge space: element [i] is the node feeding row [i] of a tensor in
    [space].  It is the graph's [src]/[dst] column for edge rows and the
    compact map's [pair_src] column for compact rows — never a copy.  A
    relation's rows form a contiguous range, so the fused gather/scatter
    GEMM kernels read it whole, segmented by {!offsets}.  Callers must not
    mutate it. *)

val compact_of_space :
  t -> Hector_core.Materialization.space -> Compact_map.t option
(** The compact map backing a space, when there is one. *)

val weight_shape : t -> Hector_core.Inter_ir.program -> string -> int array
(** The shape of a weight stack as [program] declares it over this
    graph: [\[|slices; rows; cols|\]] for a matrix, [\[|slices; dim|\]]
    for a vector, where [slices] counts the graph's edge types or node
    types as the declaration's [wslice] says, or is 1 for a shared
    weight.  Linear fusion declares its products, so this is also
    the shape of every weight-op output.  Raises [Invalid_argument] for a
    name the program does not declare as a weight. *)

val factor_slice : t -> Hector_core.Inter_ir.wslice -> slices:int -> int -> int
(** [factor_slice t left_slice ~slices s] is the slice of a
    {!Hector_core.Linear_fusion.Mat_mat}'s left factor (a stack of
    [slices]) that multiplies product slice [s]: the node type of
    relation [s]'s source or destination, clamped to the stack. *)
