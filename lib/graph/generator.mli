(** Synthetic heterogeneous-graph generation.

    Real DGL/OGB datasets are not available offline, so benchmark graphs are
    generated to match the statistics the paper's evaluation depends on:
    node/edge type counts, node and edge counts, and the {e compaction
    ratio} (unique [(etype, src)] pairs per edge) that drives the
    compact-materialization results of §4.3–4.4.  Degrees and type sizes are
    Zipf-skewed, as in real heterogeneous graphs. *)

type spec = {
  name : string;
  num_ntypes : int;
  num_etypes : int;
  num_nodes : int;  (** physical nodes to generate *)
  num_edges : int;  (** physical edges to generate *)
  compaction_target : float;  (** desired unique-(etype,src)-pairs / edges, in (0, 1] *)
  scale : float;  (** cost multiplier: logical size / physical size *)
  seed : int;
}
(** What to generate.  [num_nodes >= num_ntypes] and
    [num_edges >= num_etypes] are required so that every type is
    populated. *)

val generate : spec -> Hetgraph.t
(** Generate a graph satisfying the spec exactly on type/node/edge counts
    and approximately (typically within a few percent) on the compaction
    ratio.  Deterministic in [spec.seed]: the same spec yields the same
    graph, bit for bit, as every earlier version of this generator.

    Cost: O(N + E log P) host work, where N and E are [num_nodes] and
    [num_edges] and P is the largest per-relation count of unique
    [(etype, src)] pairs.  Every Zipf distribution is tabulated once
    ({!Hector_tensor.Rng.zipf_table}) and each variate is a binary search;
    edges are written straight into type-grouped columns. *)
