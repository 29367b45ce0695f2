(** The Hector compilation pipeline (paper Figure 3).

    [compile] takes an inter-operator IR program (what the [@hector.compile]
    frontend produces from DGL/PyG-style code) through:

    + validation and shape inference ({!Check});
    + graph-semantic-aware loop canonicalization ({!Loop_transform});
    + optional linear-operator fusion ({!Linear_fusion});
    + compact-materialization analysis ({!Materialization}, per the layout);
    + backward-program generation for training ({!Autodiff});
    + greedy 3-scan lowering to GEMM/traversal/fallback instances
      ({!Lowering});
    + optional inter-operator fusion ({!Inter_op_fusion});
    + the traversal pass record ({!Traversal_passes}): how every
      traversal and fallback body runs — pair loops, sweeps and their
      parallel safety — decided once, here.

    The result packages the forward (and optionally backward) plans, ready
    for the runtime or for CUDA-like source rendering by {!Codegen}. *)

type options = {
  layout : Layout.t;
  linear_fusion : bool;  (** apply §3.4.1 (configuration "F") *)
  training : bool;  (** also generate the backward plan *)
  gemm_schedule : Gemm_spec.schedule;
  traversal_schedule : Traversal_spec.schedule;
  prefer_node_gather : bool;
      (** schedule pure destination-accumulation loops as node-centric
          gathers instead of edge-parallel atomics (the other side of the
          §3.3.3 trade-off; used by the schedule ablation) *)
  fuse_ops : bool;
      (** apply the post-lowering {!Inter_op_fusion} pass (default on) *)
}

val default_options : options
(** Vanilla layout, no linear fusion, inference only, template-default
    schedules — the paper's "unoptimized Hector" — with inter-op fusion on. *)

val options_of_flags :
  ?training:bool -> ?fuse_ops:bool -> compact:bool -> fusion:bool -> unit -> options
(** The four evaluation configurations of Table 5: [~compact:false
    ~fusion:false] = U, [true/false] = C, [false/true] = F, [true/true] =
    C+F.  [fuse_ops] (default [true]) gates inter-op fusion. *)

val layout_tag : options -> string
(** The Table 5 configuration name of the layout and linear-fusion
    choice: ["U"], ["C"], ["F"] or ["C+F"]. *)

val options_id : options -> string
(** Compact identifier covering every option field that can change the
    compiled plan, e.g. ["C+F:coo:t32c2+lb:warp:fuse"] (led by
    {!layout_tag}) — equal ids mean
    identical compilation.
    Used by the autotuner to deduplicate candidates and by the tuning
    database as the stored configuration's display name. *)

type compiled = {
  options : options;
  forward : Plan.t;
  backward : Plan.t option;  (** present iff [options.training] *)
  fusion_rewrites : int;  (** linear-fusion pattern applications *)
  weight_ops : Linear_fusion.weight_op list;
      (** prologue weight products (the runtime also uses them to
          back-propagate into the original weights) *)
}

val compile : ?obs:Hector_obs.t -> ?options:options -> Inter_ir.program -> compiled
(** Compile a model program.  Raises [Invalid_argument] on programs that do
    not check and {!Autodiff.Unsupported} for untrainable constructs when
    [training] is set.

    [obs] (default {!Hector_obs.disabled}) records one ["compile"] pass
    span with nested children for each pipeline stage — [loop_transform],
    [check], [linear_fusion], [autodiff], [lowering.forward]/[.backward]
    (which in turn nest [materialization] and [buffer_plan]) and
    [inter_op_fusion] when enabled. *)

val compiles : unit -> int
(** Calls to {!compile} since program start, on every domain — the one
    compile witness.  It only grows: callers measure the difference
    across a region ({!Hector_serve.Serve.compiles} counts a replica's
    own calls that way). *)
