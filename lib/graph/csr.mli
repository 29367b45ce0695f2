(** Compressed sparse row encodings of the adjacency.

    The intra-operator templates are agnostic to the sparse encoding as long
    as the id-retrieval closures exist (paper §3.3.5): with COO,
    [GetSrcId] is a subscript into the source array; with CSR it is an
    ownership search in the row-pointer array.  This module provides the CSR
    side, in both directions, carrying original edge ids so per-edge data can
    be located regardless of encoding. *)

type t = private {
  row_ptr : int array;  (** length = #rows + 1 *)
  col : int array;  (** neighbor node id per stored edge *)
  eid : int array;  (** original (COO) edge id per stored edge *)
}

val incoming : Hetgraph.t -> t
(** [incoming g] has one row per node [v] listing the {e sources} of edges
    whose destination is [v] — the iteration order of
    [n.incoming_edges()]. *)

val outgoing : Hetgraph.t -> t
(** [outgoing g] has one row per node [v] listing the {e destinations} of
    edges whose source is [v]. *)

val patch_incoming :
  t -> old_graph:Hetgraph.t -> graph:Hetgraph.t -> edge_map:int array -> t * int
(** [patch_incoming old ~old_graph ~graph ~edge_map] maintains an incoming
    CSR incrementally across an edge-only mutation ({!Hector_stream}'s
    in-slack delta path): [old] must be [incoming old_graph], [graph] the
    mutated graph with the {e same} node set, and [edge_map] the old→new
    edge-id map ([-1] for removed edges; surviving entries strictly
    increasing, as produced by tombstone-compacting per-type edge
    segments).  Rows whose incoming edge set changed are regathered from
    [graph]; all other rows are copied with eids renumbered.  Returns the
    patched CSR (structurally equal to [incoming graph]) and the number of
    rows regathered.  Raises [Invalid_argument] if the node counts differ
    or [edge_map] is not monotone. *)

val degree : t -> int -> int
(** Row length. *)

val owner_of_index : t -> int -> int
(** [owner_of_index t k] is the row owning position [k] of [col] — the
    binary search into [row_ptr] that the paper names as the CSR
    implementation of [GetSrcId]/[GetDstId]. *)
