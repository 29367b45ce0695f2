(** Instances of the node/edge traversal template (paper §3.3.2,
    Algorithm 2).

    A traversal instance executes a fused run of GEMM-ineligible statements
    over the graph.  The strategy records the outcome of the
    graph-semantic-aware loop transform of §3.3.3: [Edge_parallel] assigns
    one unit of work per edge (maximal parallelism, atomic node updates);
    [Node_gather] assigns one unit per destination node iterating its
    incoming edges (data reuse, no atomics); [Node_map] is a pure per-node
    loop with no adjacency access at all.

    Statement bodies are stored in edge form (entities [Cur_edge]/[Src]/
    [Dst]) for the two edge-touching strategies and in node form
    ([Cur_node]) for [Node_map]. *)

type strategy = Edge_parallel | Node_gather | Node_map

type schedule = {
  warp_accumulate : bool;
      (** pre-reduce within thread and warp before the atomic update
          (§3.3.3, last paragraph) — cuts atomic traffic *)
}

val default_schedule : schedule
(** Warp accumulation on — the paper applies it by default during
    lowering. *)

type t = {
  kid : int;
  strategy : strategy;
  body : Inter_ir.stmt list;
  locals : string list;
      (** edge variables created and consumed inside this fused instance —
          kept in registers, never materialized (§3.3.4, last sentence) *)
  schedule : schedule;
}

val name : t -> string
(** Kernel identifier, ["traversal_<kid>"]. *)

val has_atomic_updates : t -> bool
(** Whether any statement scatters into node data ([Edge_parallel]
    accumulation through [Src]/[Dst]). *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary with the statement list. *)
