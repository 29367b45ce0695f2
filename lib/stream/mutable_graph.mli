(** A mutating heterogeneous graph serving snapshots — the core of the
    delta-ingestion subsystem.

    {!Hector_graph.Hetgraph} values are frozen; the compile/execute stack
    is built around that.  This module wraps live state — per-type node
    and edge segments with {e stable ids} (assigned at insertion, never
    reused) — and derives a physical snapshot from the previous one after
    each {!apply}.  Stable ids are dense, so the live state is flat arrays
    indexed by stable id (type, endpoints, current physical node id);
    feature rows live only in the snapshot's physical matrix.  Physical
    ids renumber per snapshot, but because inserts append to the end of
    their type segment and tombstone compaction preserves order, each
    type's survivors keep their order and the type's new ids follow
    them: the old→new id maps are always {e strictly increasing on
    survivors}.  That is what lets {!apply} derive the next snapshot's
    columns and maps by runs of the previous one, and what lets
    downstream consumers patch instead of rebuild (CSR rows, partition
    membership).

    {2 What a snapshot shares}

    A snapshot's graph, CSR and id maps are never mutated after {!apply}
    returns, so a consumer (a checker, a graph kept for comparison) may
    keep them as long as it likes; an unchanged part is shared with the
    previous snapshot (a feature-only delta keeps the graph and CSR
    physically).  Its feature matrix is different: while a delta keeps
    the node numbering (no node added or removed, no epoch bump), the
    delta's rows are written into the current matrix {e in place}, so the
    new snapshot's [features] is physically the previous one's.  Node
    churn and epoch bumps gather a fresh matrix and leave the previous
    one as it was.  A consumer that needs an old snapshot's features
    after a later {!apply} copies them first.

    {2 Capacity-slack epochs}

    At each epoch start every node/edge type is granted
    [ceil ((1 + slack) * live)] device capacity ([slack], default
    {!default_slack}).  While live counts stay within those caps
    — the {e in-slack} regime — snapshots are cheap (tombstone/append,
    in-place feature rows, incremental CSR patching) and, crucially, everything compiled or
    allocated against the {!capacity_graph} stays valid: plans, arena
    backings, staging tensors.  The first delta that overflows a cap bumps
    the {e epoch}: segments are force-compacted, caps re-derived, the
    features gathered into a fresh matrix and the CSR rebuilt, and the
    capacity graph's name changes
    ([name#e<epoch>]) so every epoch-keyed cache misses exactly once.

    In-slack tombstones are garbage: a segment more than a quarter dead
    is compacted in place (order-preserving, so maps stay monotone)
    without touching the epoch. *)

module Metagraph = Hector_graph.Metagraph
module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Tensor = Hector_tensor.Tensor

type t

type snapshot = {
  graph : Hetgraph.t;  (** physical graph, a normal frozen Hetgraph *)
  features : Tensor.t;
      (** [num_nodes x feat_dim] node features.  The next {!apply} that
          keeps the node numbering writes its rows into this tensor in
          place and hands it on; node churn or an epoch bump leaves it
          alone and the next snapshot gets a fresh one. *)
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
  feature_rows : int array option;
      (** when the node numbering survived ([node_map] is the identity
          and no node was added): the physical rows the delta's feature
          writes landed in, in op order — every other row holds what it
          held before the delta.  [None] when nodes were renumbered. *)
  edge_map : int array;  (** same for edges *)
}

type counters = {
  deltas : int;
  ops : int;
  epochs : int;  (** epoch bumps (initial epoch 0 not counted) *)
  node_overflows : int;
      (** epoch bumps where some node type outgrew its capacity *)
  edge_overflows : int;
      (** epoch bumps where some edge type outgrew its capacity; a bump
          where both did counts in both, so [epochs <= node_overflows +
          edge_overflows] *)
  rebuilds : int;  (** full CSR rebuilds: [churn_rebuilds + epochs] *)
  churn_rebuilds : int;
      (** CSR rebuilds caused by node churn inside an epoch; every other
          rebuild is an epoch bump's *)
  patched_rows : int;  (** cumulative CSR rows regathered *)
  compacted : int;  (** cumulative segment compactions *)
  rejected_deltas : int;  (** {!apply} calls that returned [Error] *)
}

val default_slack : float
(** [0.5] — 50% headroom per type. *)

val create :
  ?name:string -> ?slack:float ->
  graph:Hetgraph.t -> features:Tensor.t -> unit -> t
(** Adopt a frozen graph as epoch-0 live state: physical id [i] becomes
    stable id [i] (nodes and edges independently), and a copy of
    [features] (which must be [num_nodes x dim]) becomes the epoch-0
    snapshot's feature matrix, so in-place row writes never reach the
    caller's tensor.  [slack] defaults to {!default_slack}.
    Raises [Invalid_argument] on a feature-shape mismatch or a negative
    or non-finite [slack]. *)

val apply : t -> Delta.t -> (apply_stats, string) result
(** Apply one delta atomically and refresh the snapshot.  The whole batch
    is validated first, against the live state plus an overlay of the ids
    the batch itself has added or removed so far — an op referencing a
    dead or unknown stable id, an edge violating the metagraph, or a
    feature row of the wrong length makes the {e entire} delta [Error]
    with nothing changed — the snapshot and its features included — and
    [rejected_deltas] incremented.  On [Ok]: removals of a node
    implicitly remove its incident live edges.  The next snapshot is
    derived from the current one by runs: each type's surviving nodes and
    edges keep their order, and the type's new ones follow them.  A delta
    that keeps the node numbering writes its feature rows into the current
    feature matrix in place (no tensor is allocated), reuses the physical
    graph and CSR outright when it changes no edge, and otherwise patches
    the CSR row-wise ({!Hector_graph.Csr.patch_incoming}).  Node churn or
    an epoch bump gathers a fresh feature matrix (new nodes at zero, then
    the delta's rows) and rebuilds the CSR.  Feature rows given in the
    delta are copied; the caller may reuse its arrays. *)

val snapshot : t -> snapshot
(** The current snapshot (cheap; derived by {!apply}, not here). *)

val view : t -> Delta.view
(** Live-state window for {!Delta.generate}: stable ids ascending per
    type (segment order is ascending because stable ids are assigned by a
    monotone counter and compaction preserves order). *)

val capacity_graph : t -> Hetgraph.t
(** The warm-up graph of the current epoch, named [name#e<epoch>]: every
    node type at its capacity, every edge type holding capacity
    metagraph-respecting placeholder edges.  Anything sized or compiled
    against it (plans, arenas, staging) bounds every in-epoch snapshot, so
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

val node_of_stable : t -> int -> int option
(** Stable -> current physical id, [None] if dead. *)
