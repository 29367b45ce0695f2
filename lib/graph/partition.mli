(** Typed-edge-aware graph partitioning for distributed execution.

    [partition ~parts g] splits a heterogeneous graph into [parts] node
    partitions with a deterministic greedy-BFS edge-cut heuristic: each
    partition grows from the lowest-id unassigned seed, repeatedly
    absorbing the frontier node with the most edges into the partition
    (ties to the lowest parent id, found through a max-heap), balancing
    node counts while keeping edges internal.  Every edge is then assigned to exactly one partition —
    the one owning its {e destination} — so a partition's local subgraph
    contains the {e complete} in-neighborhood of every owned node.  Source
    nodes owned elsewhere are included as {e halo} nodes, with maps
    recording, per peer partition, which local rows mirror which of the
    peer's local rows — exactly what a layer-wise halo exchange needs.

    The construction is pure and deterministic: the same graph, [parts]
    and [slack] always produce the same partitioning. *)

type part = {
  sub : Hetgraph.t;
      (** the local subgraph: owned + halo nodes, and every edge whose
          destination is owned (a valid {!Hetgraph.t} of its own, built by
          {!Hetgraph.induce}; scale 1 — replicas run at physical size) *)
  origin_node : int array;  (** local node id → parent node id *)
  origin_edge : int array;  (** local edge id → parent edge id *)
  owned : bool array;  (** per local node: does this partition own it? *)
  owned_nodes : int array;  (** local ids of owned nodes, ascending *)
  halo : (int * (int * int) array) array;
      (** per peer partition with at least one boundary source here:
          [(peer, pairs)] with [pairs.(k) = (local, peer_local)] — local row
          [local] mirrors row [peer_local] of partition [peer].  Peers
          ascending, pairs ascending in [local]. *)
}

type t = {
  graph : Hetgraph.t;  (** the parent graph *)
  parts : int;
  slack : float;
  owner : int array;  (** parent node id → owning partition *)
  members : part array;  (** one {!part} per partition, index = partition id *)
  cut_edges : int;  (** parent edges whose endpoints live in different partitions *)
  cut_by_etype : int array;  (** the cut, split by edge type *)
}

val partition : ?slack:float -> parts:int -> Hetgraph.t -> t
(** Partition a graph.  [parts] must be in [\[1, num_nodes\]]; every
    partition is non-empty.  [slack] (default [0.]) is the allowed
    imbalance fraction: with slack 0 partition sizes are an even split of
    the nodes (within one node); with slack [s] a partition may keep
    following its BFS frontier up to [(1+s) · n/parts] nodes before the
    next partition starts, trading balance for a smaller cut.  Later
    partitions are always left at least one node each.  Raises
    [Invalid_argument] on a non-positive or too-large [parts] or a
    negative or NaN [slack]. *)

val edge_cut_fraction : t -> float
(** Cut edges over total edges (0 on edgeless graphs). *)

val balance : t -> float
(** Largest owned-node count over the ideal even share [n/parts] — 1.0 is
    perfect balance. *)

val max_owned : t -> int
(** Largest owned-node count across partitions. *)

val pp_summary : Format.formatter -> t -> unit
(** Multi-line report: per-partition owned/halo/edge counts, edge-cut
    percentage, per-type cut counts and the balance factor — what
    [hector partition] prints. *)
