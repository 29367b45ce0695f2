(** The sampled-block replica serving ({!Hector_serve.Serve}) and
    mini-batch training ({!Minibatch}) share, and the one function that
    stages a sampled block onto it.  Warmup builds a {!Session} over the
    {e parent} graph on the replica's engine, warms every plan the model
    has in that session's executor, and charges parent-capacity staging
    (features, ["norm"], and the seed gradient when training).  The
    replica keeps that one executor, and its environment, for life:
    staging a block rebinds it ({!Exec.rebind}).  The parent bounds
    every block, so steady-state blocks allocate no device memory.  On
    the host, an inference replica's feature staging is a high-water
    buffer grown to the largest block staged so far, not a
    parent-capacity copy; a training replica keeps parent capacity, so
    none of its steps allocates.  {!resize} grows all of it to a larger
    parent in place.

    An inference replica (no backward plan) keeps a {!Row_reuse} table:
    each projected row [h\[u\] · W\[s\]] of its parent features is
    computed once and reused by every later block that reads it, until
    {!update_features} writes node [u]'s row.  A training replica's
    weights change every step, so it keeps none. *)

module Tensor = Hector_tensor.Tensor

type inputs = {
  feature_name : string;
  feature_dim : int;
  out_name : string;  (** the first output *)
  edge_inputs : string list;  (** only ever ["norm"] *)
}

val inputs :
  caller:string -> ?features:Tensor.t -> graph:Hector_graph.Hetgraph.t ->
  Hector_core.Inter_ir.program -> inputs
(** Check that the program can run on sampled blocks: one node input, an
    output, no edge input but a width-1 ["norm"], and [features] (when
    given) [num_nodes × dim].  Raises [Invalid_argument] prefixed with
    [caller] and naming the bad input. *)

type t

val create :
  ?obs:Hector_obs.t -> ?weights:(string * Tensor.t) list -> ?features:Tensor.t ->
  origin:string -> seed:int -> graph:Hector_graph.Hetgraph.t ->
  inputs -> Hector_core.Compiler.compiled -> t
(** Warm a replica on an RTX 3090 engine, then zero the clock.  Weights and features are a
    parent-graph {!Session}'s seeded with [seed]; [weights] replace the
    Glorot draws and [features] (adopted) the feature draw.  Every
    replica gets its own engine and executor; transfers carry provenance
    [origin ^ ".transfer"].  The model trains when it has a backward
    plan. *)

val resize : t -> graph:Hector_graph.Hetgraph.t -> unit
(** Re-size the replica for a new parent [graph], keeping its engine,
    executor and weights: re-charge each parent-capacity device charge at
    [graph]'s size, regrow the host features (zeroed) and staging, empty
    the row table, and rebind the executor to [graph].  Arena slots only
    grow, so each stays at its high-water mark. *)

val stage : t -> Hector_graph.Sampler.subgraph -> Exec.t
(** Stage a sampled block: blit its feature rows, recompute its ["norm"],
    bind them and, when training, a seed-gradient view into the replica's
    environment, charge one [h2d_block] copy and its PCIe sync, and
    return the replica's one executor rebound to the block (with, for an
    inference replica, its row table).  Weights and their gradient stacks
    stay bound across blocks; {!Train.sgd_step} zeroes the gradients. *)

val update_features : t -> ?rows:int array -> Tensor.t -> unit
(** [update_features t ?rows src] copies feature rows of [src] (at most
    the parent's rows, the parent's width) into the parent features: only
    the [rows] given, whose projected rows go stale, or else the whole of
    [src], which makes every projected row stale.  Raises
    [Invalid_argument] on a shape mismatch or a row outside [src], before
    writing anything. *)

val invalidate_rows : t -> unit
(** Make every projected row stale (no-op for a training replica). *)


val sample_cost_ms : nodes:int -> edges:int -> float
(** Simulated host cost of sampling a block of this size. *)

(** Accessors.  [weights] and [features] are live: training updates the
    weights.  Write [features] only through {!update_features}, which
    keeps the row table coherent. *)

val engine : t -> Hector_gpu.Engine.t
val exec : t -> Exec.t
val weights : t -> (string * Tensor.t) list
val features : t -> Tensor.t
