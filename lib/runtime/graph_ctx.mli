(** Runtime graph context: the graph plus every derived encoding the
    generated kernels may traverse — incoming CSR, and the two compact
    materialization maps precomputed as §3.1.3 prescribes.  Built once per
    graph; the preprocessing pass of §3.6 corresponds to {!create}. *)

module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Compact_map = Hector_graph.Compact_map

type t = {
  graph : Hetgraph.t;
  in_csr : Csr.t;  (** incoming adjacency (destination-major) *)
  compact_src : Compact_map.t;
  compact_dst : Compact_map.t;
  rep_src : bool array;
      (** per edge: is it the first edge of its (etype, src) pair?
          Pair-local traversal statements execute only on representatives,
          so per-pair data is computed (and gradients accumulated) exactly
          once per pair. *)
  rep_dst : bool array;  (** destination-side analogue *)
  gather_ids : (Hector_core.Materialization.space * [ `Src | `Dst ] * int * int, int array) Hashtbl.t;
      (** memoized endpoint gather lists (see {!endpoint_ids}) *)
}

val create : Hetgraph.t -> t
(** Precompute all encodings. *)

val rows_of_space : t -> Hector_core.Materialization.space -> int
(** Number of rows a tensor of the given space has on this graph. *)

val endpoint_ids :
  t -> Hector_core.Materialization.space -> [ `Src | `Dst ] -> int * int -> int array
(** [endpoint_ids t space side (start, count)] is the node id feeding each
    row of the [start .. start+count-1] range of an edge-space tensor — the
    index array the fused gather/scatter GEMM kernels read.  Memoized per
    (space, side, range): the §3.6 endpoint-gather-list preprocessing,
    computed once per graph instead of once per GEMM step.  Callers must
    not mutate the returned array. *)

val compact_of_space :
  t -> Hector_core.Materialization.space -> Compact_map.t option
(** The compact map backing a space, when there is one. *)
