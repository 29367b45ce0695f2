(** The compact-materialization index (paper §3.1.3, Figure 4).

    Some per-edge intermediates only depend on the {e source node} and the
    {e edge type} (e.g. [z_i = W\[e.etype\] * e.src.feature]).  Compact
    materialization stores one row per unique [(etype, src)] pair instead of
    one row per edge.  This module precomputes the mapping, stored CSR-like
    per edge type, exactly as the paper describes: a unique non-negative
    integer per pair, plus the per-edge translation used by gather/scatter
    access schemes. *)

type t = private {
  num_pairs : int;  (** total number of unique (etype, endpoint) pairs *)
  row_of_edge : int array;  (** per COO edge id: its compact row *)
  etype_ptr : int array;
      (** length #etypes+1: type [e]'s pairs are rows
          [\[etype_ptr.(e), etype_ptr.(e+1))] — the segments of a typed
          linear layer over compact rows *)
  pair_src : int array;  (** per pair: the keyed endpoint's node id (source
                             for [build], destination for [build_dst]) *)
}

val build : Hetgraph.t -> t
(** Precompute the source-keyed mapping (deterministic: pairs are numbered
    in (etype, first-occurrence) order within each type segment). *)

val build_dst : Hetgraph.t -> t
(** Destination-keyed variant: one row per unique (etype, dst) pair — used
    for edge data that only depends on the destination endpoint (e.g.
    RGAT's [z_j]). *)

val ratio : Hetgraph.t -> t -> float
(** [ratio g t] = unique pairs / edges — the "compaction ratio" of §4.4
    (57 % on AM, 26 % on FB15k). *)

val etype_of_pair : t -> int -> int
(** Inverse lookup: the edge type owning a compact row. *)
