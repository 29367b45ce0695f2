(** User-facing runtime sessions.

    A session binds a compiled model to a concrete graph on a simulated
    device: it initializes parameters and inputs, executes forward passes
    (inference) and full training steps (forward → NLL loss → generated
    backward → SGD), and exposes the simulated clock, kernel statistics and
    memory usage that the benchmark harness reports. *)

module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine

(** Session configuration — the primary way to set up a session.

    Build one by overriding fields of {!Config.default}:
    {[
      let cfg = { Session.Config.default with trace = true; seed = 7 } in
      let session = Session.create ~config:cfg ~graph compiled
    ]} *)
module Config : sig
  type t = {
    device : Hector_gpu.Device.t;  (** simulated device (default RTX 3090) *)
    seed : int;  (** RNG seed for generated weights/inputs (default 1) *)
    trace : bool;  (** record a launch timeline (default off) *)
    memory_planner : bool option;
        (** plan-lifetime arena path; [None] (default) follows the
            [HECTOR_ARENA] knob (see {!Knobs}) *)
    domains : int option;
        (** worker-domain count override for parallel CPU kernels; [None]
            (default) leaves {!Hector_tensor.Domain_pool} sizing alone *)
    observability : Hector_obs.t option;
        (** [Some obs] — report spans/counters to [obs] (pass the handle
            the model was compiled with to get compile + run data in one
            export); [Some Hector_obs.disabled] — explicitly off; [None]
            (default) — enabled iff the [HECTOR_OBS] knob is set *)
    engine : Engine.t option;
        (** [Some e] — run on an existing engine instead of creating one
            (shares its clock, memory and stats; [device]/[trace] are then
            ignored).  Used by serving, where many sessions over sampled
            blocks bill one persistent device. *)
    slab : Exec.slab option;
        (** arena slab handed to the session's executor, sharing
            plan-buffer backings across sessions (see {!Exec.slab}) *)
    node_inputs : (string * Tensor.t) list;  (** inputs by name; rest generated *)
    edge_inputs : (string * Tensor.t) list;
    weights : (string * Tensor.t) list;
  }

  val default : t
  (** RTX 3090, seed 1, no trace, knob-driven planner/observability, no
      domain override, everything generated. *)
end

type t

val create : ?config:Config.t -> graph:Hector_graph.Hetgraph.t -> Hector_core.Compiler.compiled -> t
(** [create ~config ~graph compiled] builds a session ([config] defaults
    to {!Config.default}).  Parameters and inputs not supplied
    are generated: weights with Glorot initialization sized from the
    declarations and the graph's type counts (fusion-generated weights are
    computed, not initialized); node inputs with standard-normal entries;
    the conventional edge input ["norm"] with RGCN's [1/c_{v,r}]; other
    edge inputs uniform.  Weight and input device memory is charged to the
    engine (weights unscaled, features graph-proportional).  Raises
    [Hector_gpu.Memory.Out_of_memory] if the inputs alone exceed device
    memory at paper scale.

    {b The graph is frozen at creation.}  A session never observes
    structural changes made after [create]; the old guidance of rebuilding
    a session per graph edit is {e deprecated} as a mutation strategy.
    Workloads whose graph changes over time should mutate a
    {!Hector_stream.Mutable_graph} and run over the graphs its
    [snapshot] yields — that is the supported mutating path: in-slack
    deltas keep compiled plans, slab backings and serving replicas warm
    (see {!Hector_stream} and DESIGN.md "Streaming ingestion"), where
    recreating sessions from scratch recompiles and reallocates on every
    edit. *)

val forward : t -> (string * Tensor.t) list
(** Run one forward pass (inference); returns the program outputs (copies).
    Temporaries are freed when the model was compiled for inference and
    kept when compiled for training (the backward pass needs them). *)

val loss_and_grads : t -> labels:int array -> float
(** Forward, NLL loss, backward and fused-weight gradient chaining —
    everything in {!train_step} except the SGD update — leaving the weight
    gradients readable via {!weight_grads}.  Used by gradient-checking
    tests and custom optimizers. *)

val train_step : t -> ?lr:float -> labels:int array -> unit -> float
(** One full training step: forward, NLL loss against [labels] (one class
    index per node, in [\[0, out_dim)]), backward plan, fused-weight
    gradient chaining, SGD update.  Returns the loss.  The model must have
    been compiled with [training = true]. *)

val exec : t -> Exec.t
(** The underlying execution state (environment, context, engine). *)

val engine : t -> Engine.t
(** The simulated device engine (clock, stats, memory). *)

val obs : t -> Hector_obs.t
(** The observability handle the session's engine reports to (the
    configured one, or {!Hector_obs.disabled}). *)

val metrics_json : t -> string
(** Single-line JSON metrics snapshot for this session in the shared
    {!Hector_obs.Metrics} envelope (["subsystem"], ["elapsed_ms"],
    ["launches"], ["comm"]): simulated attribution tables ([by_category],
    [by_op]) and — when observability is enabled — wall-clock spans and
    counters. *)

val chrome_trace : t -> string
(** Chrome-tracing document of the session's launch timeline (pid 1, with
    per-launch provenance args) merged with its observability spans
    (pid 2).  Requires [trace] for the kernel timeline. *)

val weights : t -> (string * Tensor.t) list
(** Current parameter stacks (live references). *)

val set_weights : t -> (string * Tensor.t) list -> unit
(** Restore parameter values in place ({!Train.set_weights}): the
    checkpoint-restore path.  Engine allocations, gradient bindings and
    arena backings all survive, so a restored session trains bit-
    identically to one that never stopped. *)

val rng_state : t -> int64
(** Cursor of the session's initialization generator
    ({!Hector_tensor.Rng.state}) — serialized into checkpoints so resumed
    runs draw the continuation of the same stream. *)

val weight_grads : t -> (string * Tensor.t) list
(** Gradient stacks accumulated by the last backward pass that has not yet
    been consumed by SGD. *)

val output_dim : t -> int
(** Width of the (first) program output — the class count used for
    labels. *)

val reset_clock : ?keep_events:bool -> t -> unit
(** Zero the simulated clock and statistics (e.g. after warm-up).  Trace
    events are dropped too unless [keep_events:true] (see
    {!Engine.reset_clock}). *)

val rgcn_norm : Hector_graph.Hetgraph.t -> Tensor.t
(** RGCN's [1/c_{v,r}] edge normalizer: one row per edge holding the
    reciprocal per-relation incoming degree of the edge's destination —
    the tensor {!create} generates for the conventional edge input
    ["norm"].  Exposed so drivers can compute the same normalizer for
    sampled blocks.  O(edges + nodes). *)

val rgcn_norm_into : Hector_graph.Hetgraph.t -> float array -> int -> unit
(** [rgcn_norm_into g data off] writes {!rgcn_norm}[ g]'s values to
    [data.(off)] .. [data.(off + num_edges - 1)] — straight into a staging
    buffer, with no intermediate tensor. *)
