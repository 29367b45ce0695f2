(** Data-layout specifications (paper §3.2.1).

    Decoupled from model semantics, a layout spec determines (1) how
    conceptual per-node/per-edge data are materialized into tensors —
    vanilla (one row per edge) or compact (one row per (edge type, unique
    endpoint) pair, §3.1.3) — and (2) the sparse adjacency encoding the
    generated kernels traverse.  The spec does not influence inter-operator
    transforms; it is consulted during lowering, where template instances
    pick their data-access schemes from it.  Nodes are always grouped by
    type ([Hetgraph]'s invariant), which enables segment-MM
    for typed linear layers, so no field selects it. *)

type materialization =
  | Vanilla  (** per-edge rows (Figure 4 left) *)
  | Compact  (** per-(etype, unique endpoint) rows (Figure 4 right) *)

type adjacency =
  | Coo  (** id retrieval = array subscript *)
  | Csr  (** id retrieval = ownership search in the row-pointer array *)

type t = { materialization : materialization; adjacency : adjacency }

val default : t
(** Vanilla materialization and COO adjacency — the
    "unoptimized Hector" configuration of §4.2. *)

val compact : t
(** {!default} with compact materialization — configuration "C". *)

val pp : Format.formatter -> t -> unit
(** Short printer, e.g. ["compact+coo"]. *)
