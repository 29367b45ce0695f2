(** Typed-edge-aware graph partitioning for distributed execution.

    [partition ~parts g] splits a heterogeneous graph into [parts] node
    partitions with a deterministic greedy-BFS edge-cut heuristic: each
    partition grows from the lowest-id unassigned seed, repeatedly
    absorbing the frontier node with the most edges into the partition
    (ties to the lowest parent id), balancing node counts while keeping
    edges internal.  Every edge is then assigned to exactly one partition —
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

type rebalance_stats = {
  parts_rebuilt : int;  (** partitions re-induced from scratch *)
  parts_reused : int;  (** partitions whose subgraph was reused verbatim *)
  halos_patched : int;  (** reused partitions whose halo maps were recomputed *)
  full_rebuild : bool;  (** the balance bound tripped a full repartition *)
}

val rebalance :
  t ->
  graph:Hetgraph.t ->
  node_map:int array ->
  edge_map:int array ->
  ?max_balance:float ->
  unit ->
  t * rebalance_stats
(** [rebalance old ~graph ~node_map ~edge_map ()] carries a partitioning
    across a graph mutation incrementally (the {!Hector_stream} delta
    path).  [node_map]/[edge_map] send old parent ids to new ones ([-1]
    for removed; surviving entries strictly increasing, as tombstone
    compaction produces).  Surviving nodes keep their owner; inserted
    nodes join the partition owning the most already-assigned neighbors
    (ties to the least-loaded, then the lowest partition id).  Partitions
    whose member set is untouched keep their induced subgraph, [owned]
    masks and local numbering — only origin maps are renumbered, and halo
    pair lists are recomputed only when a peer partition changed; the rest
    are re-induced exactly as {!partition} would.  The result upholds
    {!partition}'s structural invariants (each edge assigned to its
    destination's owner exactly once, complete in-neighborhoods, sound
    halo maps), though unlike {!partition} a partition may become empty if
    deletions drain it.  If the preserved assignment's balance exceeds
    [max_balance] (default [2.0], must be [>= 1]) times the even share,
    falls back to a full {!partition} (reported in the stats).  Raises
    [Invalid_argument] on mismatched or non-monotone maps, a changed
    metagraph shape, or fewer nodes than partitions. *)

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
