(** A mutating heterogeneous graph serving immutable snapshots — the core
    of the delta-ingestion subsystem.

    {!Hector_graph.Hetgraph} values are frozen; the compile/execute stack
    is built around that.  This module wraps live state — per-type node
    and edge segments with {e stable ids} (assigned at insertion, never
    reused) — and re-derives a physical snapshot after each {!apply}.
    Stable ids are dense, so the live state is flat arrays indexed by
    stable id (type, endpoints, current physical id); feature rows live
    only in the snapshot's physical matrix, and each rebuild gathers them
    from the previous snapshot through the old physical ids.  An {!apply}
    never mutates a snapshot it has returned, so a consumer (a serving
    replica mid-batch, a checker) may keep an old one as long as it
    likes.  Physical ids renumber per snapshot, but
    because inserts append to the end of their type segment and
    tombstone compaction preserves order, the old→new id maps are always
    {e strictly increasing on survivors}, which is what lets downstream
    consumers patch instead of rebuild (CSR rows, partition membership).

    {2 Capacity-slack epochs}

    At each epoch start every node/edge type is granted
    [ceil ((1 + slack) * live)] device capacity ([HECTOR_STREAM_SLACK],
    default {!default_slack}).  While live counts stay within those caps
    — the {e in-slack} regime — snapshots are cheap (tombstone/append +
    incremental CSR patching) and, crucially, everything compiled or
    allocated against the {!capacity_graph} stays valid: plans, arena
    slabs, staging tensors.  The first delta that overflows a cap bumps
    the {e epoch}: segments are force-compacted, caps re-derived, the
    snapshot rebuilt from scratch, and the capacity graph's name changes
    ([name#e<epoch>]) so every epoch-keyed cache misses exactly once.

    In-slack tombstones are garbage: a segment whose dead fraction
    exceeds the compaction threshold ([HECTOR_STREAM_COMPACT], default
    {!default_compact}) is compacted in place (order-preserving, so maps
    stay monotone) without touching the epoch. *)

module Metagraph = Hector_graph.Metagraph
module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Tensor = Hector_tensor.Tensor

type t

type snapshot = {
  graph : Hetgraph.t;  (** physical graph, a normal frozen Hetgraph *)
  features : Tensor.t;  (** [num_nodes x feat_dim] node features *)
  csr : Csr.t;  (** [Csr.incoming graph], patched or rebuilt *)
  node_stable : int array;  (** physical node id -> stable id *)
  edge_stable : int array;  (** physical edge id -> stable id *)
  epoch : int;
  version : int;  (** bumped by every {!apply} *)
}

type apply_stats = {
  epoch_changed : bool;
  structural : bool;  (** whether the delta changed graph structure *)
  csr_patched_rows : int;
      (** rows regathered by {!Hector_graph.Csr.patch_incoming}; [0] when
          the CSR was rebuilt or reused whole *)
  csr_rebuilt : bool;  (** full [Csr.incoming] rebuild (node churn / epoch) *)
  compactions : int;  (** segments compacted by this apply *)
  node_map : int array;
      (** previous snapshot's physical node id -> new physical id, [-1]
          for removed; strictly increasing on survivors *)
  edge_map : int array;  (** same for edges *)
}

type counters = {
  deltas : int;
  ops : int;
  epochs : int;  (** epoch bumps (initial epoch 0 not counted) *)
  rebuilds : int;  (** full CSR rebuilds *)
  patched_rows : int;  (** cumulative CSR rows regathered *)
  compacted : int;  (** cumulative segment compactions *)
  rejected_deltas : int;  (** {!apply} calls that returned [Error] *)
}

val default_slack : float
(** [0.5] — 50% headroom per type. *)

val default_compact : float
(** [0.25] — compact a segment once a quarter of its slots are dead. *)

val create :
  ?name:string -> ?slack:float -> ?compact:float ->
  graph:Hetgraph.t -> features:Tensor.t -> unit -> t
(** Adopt a frozen graph as epoch-0 live state: physical id [i] becomes
    stable id [i] (nodes and edges independently), and a copy of
    [features] (which must be [num_nodes x dim]) becomes the epoch-0
    snapshot's feature matrix.  [slack] and
    [compact] default to the [HECTOR_STREAM_SLACK] / [HECTOR_STREAM_COMPACT]
    knobs, then to {!default_slack} / {!default_compact}.  Raises
    [Invalid_argument] on a feature-shape mismatch, negative [slack] or
    [compact] outside [(0, 1]]. *)

val apply : t -> Delta.t -> (apply_stats, string) result
(** Apply one delta atomically and refresh the snapshot.  The whole batch
    is validated first, against the live state plus an overlay of the ids
    the batch itself has added or removed so far — an op referencing a
    dead or unknown stable id, an edge violating the metagraph, or a
    feature row of the wrong length makes the {e entire} delta [Error]
    with nothing changed (and [rejected_deltas] incremented).  On [Ok]:
    removals of a node implicitly remove its incident live edges;
    feature-only deltas reuse the previous physical graph and CSR
    outright and copy the feature matrix before writing their rows;
    edge-only structural deltas patch the CSR incrementally; node churn
    or an epoch bump rebuilds it.  Feature rows given in the delta are
    copied; the caller may reuse its arrays. *)

val snapshot : t -> snapshot
(** The current snapshot (cheap; rebuilt by {!apply}, not here). *)

val view : t -> Delta.view
(** Live-state window for {!Delta.generate}: stable ids ascending per
    type (segment order is ascending because stable ids are assigned by a
    monotone counter and compaction preserves order). *)

val capacity_graph : t -> Hetgraph.t
(** The warm-up graph of the current epoch, named [name#e<epoch>]: every
    node type at its capacity, every edge type holding capacity
    metagraph-respecting placeholder edges.  Anything sized or compiled
    against it (plans, slabs, staging) bounds every in-epoch snapshot, so
    a serving replica warmed on it never reallocates until the epoch
    changes. *)

val node_capacity : t -> int -> int
(** Per-ntype capacity of the current epoch. *)

val edge_capacity : t -> int -> int
(** Per-etype capacity of the current epoch. *)

val epoch : t -> int

val version : t -> int

val live_nodes : t -> int
(** Total live nodes (= [num_nodes] of the current snapshot's graph). *)

val live_edges : t -> int

val counters : t -> counters

val name : t -> string

val feat_dim : t -> int

val metagraph : t -> Metagraph.t

val stable_of_node : t -> int -> int
(** [stable_of_node t phys] — current snapshot's physical -> stable. *)

val node_of_stable : t -> int -> int option
(** Stable -> current physical id, [None] if dead. *)
