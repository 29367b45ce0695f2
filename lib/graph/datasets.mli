(** Replicas of the eight heterogeneous datasets of Table 4.

    Logical (paper-scale) statistics come straight from Table 4 of the
    paper (counts after the default DGL/OGB preprocessing, e.g. inverse
    edges added).  Physical instances are generated scaled-down; the
    recorded [scale] lets the GPU simulator account costs and memory at
    paper scale (DESIGN.md, "Scaled cost accounting").

    Compaction-ratio targets: AM (0.57) and FB15k (0.26) are given in §4.4;
    the rest are estimates consistent with each graph's shape — e.g. mag's
    4 relations over 21M edges share sources heavily (§2.3 reports >70 % of
    per-edge linear-layer launches saved, hence ~0.30); biokg's 51
    relations over 4.8M edges on only 94K nodes make (etype, src) pairs
    extremely repetitive (~0.18 — consistent with Table 5's largest
    compaction speedups landing on biokg); sparse RDF-style graphs with
    many relations sit in the 0.5–0.7 band. *)

type info = {
  name : string;
  num_ntypes : int;
  num_etypes : int;
  logical_nodes : int;
  logical_edges : int;
  compaction_target : float;
}
(** Paper-scale statistics of one dataset. *)

val all : info list
(** The eight datasets, in Table 4 order: aifb, mutag, bgs, am, mag,
    wikikg2, fb15k, biokg. *)

val find : string -> info
(** Look up by name; raises [Invalid_argument] naming the bad dataset. *)

val load : ?max_nodes:int -> ?max_edges:int -> ?seed:int -> info -> Hetgraph.t
(** [load info] instantiates a physical replica capped at [max_nodes]
    (default 3000) and [max_edges] (default 9000), with [scale] set so the
    logical size matches Table 4.  Small datasets that already fit are
    generated at full size with [scale = 1].  Raises [Invalid_argument]
    naming the cap and its value when [max_nodes] or [max_edges] is below
    1. *)
