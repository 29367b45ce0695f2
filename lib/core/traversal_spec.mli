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

(** {1 Passes}

    How a body runs, decided at compile time by {!Traversal_passes}: a
    list of passes run in order, each its pair loops then one sweep. *)

type side = [ `Src | `Dst ]

type pair_item =
  | Pair_stmt of Inter_ir.stmt  (** a pair-local statement *)
  | Pair_reduction of Inter_ir.expr
      (** a hoisted reduction of a swept statement, into pair scratch
          that the sweep reads through the compact row map *)

type pair_loop = { side : side; items : pair_item list }
(** Its items, in statement order, once per (etype, endpoint) pair of
    [side], at the pair's representative (first) edge. *)

type pass = {
  pair_loops : pair_loop list;  (** at most one per side, run before the sweep *)
  sweep : Inter_ir.stmt list;  (** per edge (per node for [Node_map]) *)
  parallel_safe : bool;
      (** the sweep may run in destination chunks: no two chunks touch
          one row, and its [Grad_weight] statements read only what they
          would read in place when run after the other statements, in
          the sweep's order *)
}

type t = {
  kid : int;
  strategy : strategy;
  body : Inter_ir.stmt list;
  locals : string list;
      (** edge variables created and consumed inside this fused instance —
          kept in registers, never materialized (§3.3.4, last sentence) *)
  schedule : schedule;
  passes : pass list;
      (** the body's recorded passes; [[]] until {!Traversal_passes.record}
          fills them in *)
}

val name : t -> string
(** Kernel identifier, ["traversal_<kid>"]. *)

val has_atomic_updates : t -> bool
(** Whether any statement scatters into node data ([Edge_parallel]
    accumulation through [Src]/[Dst]). *)

val pair_side : pass list -> Inter_ir.stmt -> side option
(** The side whose pair loop runs a body statement, [None] when a sweep
    runs it. *)

val side_name : side -> string
(** ["src"] or ["dst"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary with the statement list, or, when the passes do
    more than sweep the body once, each pass's pair loops and sweep. *)
