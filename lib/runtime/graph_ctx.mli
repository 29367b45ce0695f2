(** Runtime graph context: the graph plus every derived encoding the
    generated kernels may traverse — incoming CSR, the two compact
    materialization maps of §3.1.3 and their representative-edge masks.
    The preprocessing pass of §3.6 happens on demand: {!create} only
    records the graph, and each encoding is built the first time it is
    requested, then kept.  A plan that never traverses by destination or
    materializes compactly (e.g. a U forward over a small sampled block)
    never pays for those encodings.

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

val rep_src : t -> bool array
(** Per edge: is it the first edge of its (etype, src) pair?  Pair-local
    traversal statements execute only on representatives, so per-pair data
    is computed (and gradients accumulated) exactly once per pair. *)

val rep_dst : t -> bool array
(** Destination-side analogue of {!rep_src}. *)

val rows_of_space : t -> Hector_core.Materialization.space -> int
(** Number of rows a tensor of the given space has on this graph. *)

val endpoint_ids : t -> Hector_core.Materialization.space -> [ `Src | `Dst ] -> int array
(** [endpoint_ids t space side] is the §3.6 endpoint gather list of an
    edge space: element [i] is the node feeding row [i] of a tensor in
    [space].  It is the graph's [src]/[dst] column for edge rows and the
    compact map's [pair_src] column for compact rows — never a copy.  A
    relation's rows form a contiguous range, so the fused gather/scatter
    GEMM kernels read this array at the range's start ([~idx_off]).
    Callers must not mutate it. *)

val compact_of_space :
  t -> Hector_core.Materialization.space -> Compact_map.t option
(** The compact map backing a space, when there is one. *)
