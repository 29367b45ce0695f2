(** Shared measurement harness for the paper's evaluation section.

    Caches dataset replicas and measurement results so that every
    table/figure driver reuses one measurement matrix: Hector is executed
    (per model × dataset × task × {U, C, F, C+F}) on the simulator,
    baselines through their behavioural recipes.  Simulated time is
    deterministic, so a single steady-state epoch replaces the paper's
    ≥10-epoch averaging: the first epoch (with allocations) is discarded
    as warm-up and the second is reported. *)

module G = Hector_graph.Hetgraph
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel

type config = { compact : bool; fusion : bool }

val all_configs : config list
(** U, C, F, C+F in Table 5 order. *)

val config_label : config -> string
(** ["U"], ["C"], ["F"], ["C+F"]. *)

type measurement =
  | Ok of {
      time_ms : float;  (** steady-state epoch, simulated *)
      peak_gb : float;
      breakdown : (Kernel.category * Stats.entry) list;  (** steady-state epoch *)
    }
  | Out_of_memory

type t
(** Measurement context (mutable caches). *)

val create : ?max_nodes:int -> ?max_edges:int -> ?seed:int -> unit -> t
(** Defaults: 2000 physical nodes, 6000 physical edges, seed 7 — enough
    for stable shapes while keeping CPU execution fast.  Paper-scale costs
    come from the recorded dataset scale. *)

val dataset : t -> string -> G.t
(** Cached dataset replica by Table-4 name. *)

val models : string list
(** [\["rgcn"; "rgat"; "hgt"\]]. *)

val hector : t -> model:string -> dataset:string -> training:bool -> config -> measurement
(** Cached Hector measurement. *)

val hector_best : t -> model:string -> dataset:string -> training:bool -> measurement
(** Fastest configuration that runs — the "best optimized" series of
    Figure 5. *)

val baseline :
  t -> Hector_baselines.Baselines.system -> model:string -> dataset:string -> training:bool ->
  Hector_baselines.Baselines.outcome
(** Cached baseline measurement. *)

val best_baseline : t -> model:string -> dataset:string -> training:bool -> (string * float) option
(** Name and time of the fastest baseline that completes. *)

val geomean : float list -> float
(** Geometric mean (of speedups). *)
