(** Neighborhood sampling for minibatch training (paper §6, second item:
    "Optimize data movement in minibatch training — graphs [that] cannot
    fit into GPU memory have to stay in host memory ... in each step,
    subgraphs are sampled and transferred to the GPU").

    [sample] draws a k-hop sampled neighborhood of a seed node set, DGL
    style: per hop, up to [fanout] incoming edges of every frontier node.
    The result is a self-contained {!Hetgraph.t} (node ids renumbered and
    re-grouped by type so all compiler invariants hold) plus the mappings
    back into the parent graph.

    A call costs flat-array work proportional to the block it builds:
    each frontier row is read straight out of the CSR and shuffled in
    place with {!Hector_tensor.Rng.shuffle_pair}; membership is an
    open-addressing int set sized to the block; seeds are mapped to block
    ids by binary search over the sorted [origin_node].  Given a [?csr],
    nothing proportional to the parent graph is allocated.  The draws and
    the block (node order, edge order, origin maps) are a pure function
    of [seed], [graph], the seeds, [fanout] and [hops]. *)

type subgraph = {
  graph : Hetgraph.t;  (** the sampled block, a valid graph of its own *)
  origin_node : int array;  (** subgraph node id → parent node id *)
  origin_edge : int array;  (** subgraph edge id → parent edge id *)
  seed_nodes : int array;  (** subgraph ids of the seeds (training targets) *)
}

val sample_result :
  ?seed:int ->
  ?csr:Csr.t ->
  graph:Hetgraph.t ->
  seeds:int array ->
  fanout:int ->
  hops:int ->
  unit ->
  (subgraph, string) result
(** Sample a block.  [seeds] are parent node ids; [fanout] bounds the
    incoming edges kept per node per hop (uniform without replacement);
    [hops >= 1].  The subgraph inherits the parent's metagraph and cost
    scale 1 (a minibatch runs at its physical size).  [csr] (which must be
    [Csr.incoming graph]) lets a caller that samples the same parent many
    times — a serving replica, or the streaming subsystem with an
    incrementally patched CSR — skip rebuilding the adjacency per call.
    Returns [Error msg] (stable, surfaced from {!Hetgraph.induce_result})
    on empty seeds, non-positive fanout/hops, or a seed referencing a node
    outside the graph — e.g. one tombstoned by a {!Hector_stream} delta. *)

val sample :
  ?seed:int ->
  ?csr:Csr.t ->
  graph:Hetgraph.t ->
  seeds:int array ->
  fanout:int ->
  hops:int ->
  unit ->
  subgraph
(** {!sample_result}, raising [Invalid_argument] on [Error]. *)

val sample_union_result :
  ?seed:int ->
  ?csr:Csr.t ->
  graph:Hetgraph.t ->
  seed_sets:int array array ->
  fanout:int ->
  hops:int ->
  unit ->
  (subgraph * int array array, string) result
(** Sample ONE block covering several requests at once: the block is
    [sample] of the deduplicated union of the seed sets (first-occurrence
    order, so the union of a single set is that set), and the second
    component maps each input set to the block ids of its own seeds
    (binary search over [origin_node]) — the rows to scatter back per
    request after a shared batched forward.
    The returned subgraph's [seed_nodes] are the union's block ids.
    Returns [Error msg] if [seed_sets] or any individual set is empty, or
    on the conditions {!sample_result} rejects. *)

val sample_union :
  ?seed:int ->
  ?csr:Csr.t ->
  graph:Hetgraph.t ->
  seed_sets:int array array ->
  fanout:int ->
  hops:int ->
  unit ->
  subgraph * int array array
(** {!sample_union_result}, raising [Invalid_argument] on [Error]. *)

val induced_feature_rows : subgraph -> int array
(** The parent rows to gather when transferring node features to the
    device — [origin_node], exposed under the name the runtime uses. *)
