(** The metagraph of a heterogeneous graph.

    A heterogeneous graph's schema: every edge type (relation) connects one
    source node type to one destination node type, i.e. relations are
    canonical triples [(src_ntype, etype, dst_ntype)] as in DGL.  The
    metagraph is what typed-weight slicing ([W\[e.etype\]],
    [Q\[tau(dst)\]], ...) keys into. *)

type t
(** Immutable relation table. *)

val create : num_ntypes:int -> relations:(int * int) array -> t
(** [create ~num_ntypes ~relations] builds a metagraph where edge type [e]
    connects source node type [fst relations.(e)] to destination node type
    [snd relations.(e)].  Raises [Invalid_argument] if any node type is out
    of range. *)

val num_ntypes : t -> int
(** Number of node types. *)

val num_etypes : t -> int
(** Number of edge types (relations). *)

val src_ntype : t -> int -> int
(** [src_ntype t e] is the node type at the source end of relation [e]. *)

val dst_ntype : t -> int -> int
(** [dst_ntype t e] is the node type at the destination end of relation
    [e]. *)

val etypes_with_dst : t -> int -> int list
(** All relations whose destination node type is the given one — the
    per-destination-type incoming relation set used by HGT-style
    aggregation. *)
