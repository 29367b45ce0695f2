(** Heterogeneous graphs in COO form.

    The canonical in-memory representation used by the compiler and runtime:
    typed nodes, typed edges in coordinate form, plus a {e cost scale}
    recording how much larger the logical (paper-scale) graph is than this
    physical instance — the GPU simulator multiplies graph-proportional
    costs by it (see DESIGN.md).

    Invariants established by {!create}:
    - node ids are grouped by node type (all type-0 nodes first, ...), which
      is the "nodes are presorted" assumption that enables segment-MM;
    - edges are sorted by edge type, so each edge type occupies a contiguous
      id range (segment iteration, per-relation kernels);
    - every edge respects the metagraph ([type (src e) = src_ntype (etype e)]
      and symmetrically for the destination). *)

type t = private {
  name : string;
  metagraph : Metagraph.t;
  num_nodes : int;
  num_edges : int;
  node_type : int array;  (** per node, non-decreasing *)
  src : int array;  (** per edge, source node id *)
  dst : int array;  (** per edge, destination node id *)
  etype : int array;  (** per edge, non-decreasing *)
  scale : float;  (** logical size / physical size, >= 1 *)
}

val create :
  ?name:string ->
  ?scale:float ->
  metagraph:Metagraph.t ->
  node_type:int array ->
  edges:(int * int * int) array ->
  unit ->
  t
(** [create ~metagraph ~node_type ~edges ()] validates and normalizes a
    graph.  [edges] are [(src, dst, etype)] triples in any order; they are
    sorted by edge type internally.  [node_type] must be sorted
    (non-decreasing); node ids out of range, unsorted node types, or edges
    violating the metagraph raise [Invalid_argument]. *)

val of_columns :
  ?name:string ->
  ?scale:float ->
  metagraph:Metagraph.t ->
  node_type:int array ->
  src:int array ->
  dst:int array ->
  etype:int array ->
  unit ->
  t
(** {!create} over edge columns (edge [i] is [(src.(i), dst.(i),
    etype.(i))]) that already arrive grouped by edge type, as a mutable
    graph's snapshots do.  The four arrays are adopted, not copied, so the
    caller must not mutate them afterwards.  Raises [Invalid_argument] on
    what {!create} rejects, on columns of unequal length, and on edges not
    grouped by type. *)

val num_ntypes : t -> int
(** Number of node types. *)

val num_etypes : t -> int
(** Number of edge types. *)

val logical_nodes : t -> int
(** Paper-scale node count ([num_nodes * scale], rounded). *)

val logical_edges : t -> int
(** Paper-scale edge count. *)

val density : t -> float
(** [logical_edges / logical_nodes^2] — the column reported in Table 4. *)

val nodes_of_type : t -> int -> int * int
(** [nodes_of_type g nt] is the contiguous id range [(start, count)] of
    nodes with type [nt] (possibly empty). *)

val edges_of_type : t -> int -> int * int
(** [edges_of_type g e] is the contiguous edge-id range [(start, count)] of
    edges with type [e] (possibly empty). *)

val in_degrees : t -> int array
(** Per-node incoming degree. *)

val out_degrees : t -> int array
(** Per-node outgoing degree. *)

type induced = {
  sub : t;  (** the induced subgraph, a valid graph of its own *)
  origin_node : int array;  (** subgraph node id → parent node id *)
  origin_edge : int array;  (** subgraph edge id → parent edge id *)
}
(** An induced subgraph with its maps back into the parent. *)

val induce_result :
  ?name:string -> t -> nodes:int array -> edges:int array -> (induced, string) result
(** [induce_result g ~nodes ~edges] renumbers the given member nodes and
    edges into a self-contained subgraph upholding every {!create}
    invariant — the extraction shared by the neighborhood sampler and the
    graph partitioner.  [nodes] are distinct parent node ids in any order;
    the subgraph orders them by (type, parent id), which is ascending
    parent id because parent nodes are grouped by type, so [origin_node]
    is sorted and {!origin_index} inverts it.  [edges] are parent edge ids
    whose endpoints must all be members; a stable counting sort groups
    them by type, preserving their relative order within each type in
    [origin_edge].  Members are ordered by an int radix sort and
    endpoints renumbered by binary search, so the work is
    O(|nodes| + |edges| log |nodes|) plus the number of edge types:
    nothing proportional to the parent graph.  Invalid member sets — duplicates, out-of-range node or
    edge ids (e.g. a seed referencing a node removed by a {!Hector_stream}
    delta), or an edge endpoint outside [nodes] — return [Error msg] with
    a stable human-readable message instead of raising, so callers holding
    ids that may have gone stale under mutation get an error channel, not
    an exception. *)

val origin_index : int array -> int -> int
(** [origin_index origin_node v] is the subgraph id of parent node [v] —
    its position in the ascending [origin_node] map of an {!induced}
    subgraph, found by binary search — or [-1] if [v] is not a member. *)

val induce : ?name:string -> t -> nodes:int array -> edges:int array -> induced
(** {!induce_result}, raising [Invalid_argument] on [Error] — for callers
    whose member sets are correct by construction (the partitioner). *)

val pp : Format.formatter -> t -> unit
(** One-line summary printer. *)
