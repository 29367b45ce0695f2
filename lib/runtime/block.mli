(** The sampled-block replica serving ({!Hector_serve.Serve}) and
    mini-batch training ({!Minibatch}) share, and the one function that
    stages a sampled block onto it.  Warmup builds a {!Session} over the
    {e parent} graph on the replica's engine and slab, warms every plan
    the model has, and allocates parent-capacity staging (features,
    ["norm"], and the seed gradient when training).  The parent bounds
    every block, so steady-state blocks allocate no device memory. *)

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
  ?obs:Hector_obs.t -> ?epoch:int -> ?weights:(string * Tensor.t) list -> ?features:Tensor.t ->
  origin:string -> seed:int -> graph:Hector_graph.Hetgraph.t ->
  inputs -> Hector_core.Compiler.compiled -> t
(** Warm a replica on an RTX 3090 engine, then zero the clock.  Weights and features are a
    parent-graph {!Session}'s seeded with [seed]; [weights] replace the
    Glorot draws and [features] (adopted) the feature draw.  [epoch] tags
    the slab; transfers carry provenance [origin ^ ".transfer"].  The
    model trains when it has a backward plan. *)

val stage : t -> Hector_graph.Sampler.subgraph -> Exec.t
(** Stage a sampled block: blit its feature rows, recompute its ["norm"],
    bind a seed-gradient view when training, charge one [h2d_block] copy
    and its PCIe sync, and return a block-local executor on the replica's
    engine and slab holding the weights and staged views. *)

val sample_cost_ms : nodes:int -> edges:int -> float
(** Simulated host cost of sampling a block of this size. *)

(** Accessors.  [weights] and [features] are live: training updates the
    weights, and overwriting [features] in place updates the parent's. *)

val engine : t -> Hector_gpu.Engine.t
val slab : t -> Exec.slab
val weights : t -> (string * Tensor.t) list
val features : t -> Tensor.t
