(** Kernel launch descriptors.

    Every simulated kernel launch is summarized by the quantities the cost
    model needs: category (for breakdown figures), grid geometry (for
    occupancy), arithmetic work and memory traffic split by access pattern.
    The runtime constructs these alongside the actual CPU computation of the
    kernel's result. *)

type category =
  | Gemm  (** instances of the GEMM template (includes segment/batched MM) *)
  | Traversal  (** instances of the node/edge traversal template *)
  | Copy  (** materialization copies: weight replication, feature copies *)
  | Index  (** index construction / conversion (Figure 1 "indexing") *)
  | Fallback  (** operators executed by the PyTorch-fallback path *)
  | Reduction  (** standalone reductions (losses, norms) *)
  | Comm
      (** inter-replica interconnect transfers (halo exchange, gradient
          all-reduce) — posted by the distributed runtime on
          {!Engine.post} channels with an externally computed cost, never
          priced by the device roofline *)

val category_name : category -> string
(** Short label used in breakdown tables ("gemm", "traversal", ...). *)

val all_categories : category list
(** Fixed presentation order of the categories. *)

type provenance = {
  op : string;
      (** the inter-op IR operator (output variable) this launch computes,
          or a pseudo-operator (["loss"], ["sgd"], ["host_sync"]) for
          runtime launches outside any plan *)
  step : int;  (** plan step index that emitted the launch, [-1] if none *)
  origin : string;
      (** the compiler pass / runtime component that produced the kernel,
          e.g. ["lowering.gemm"], ["linear_fusion"], ["inter_op_fusion"],
          ["runtime.memset"] *)
  fused : string list;
      (** for an inter-op-fused launch, the constituent ops in execution
          order; [[]] for ordinary launches.  The [op] field joins them
          with ["+"], so {!Stats} by-op attribution stays total (every
          simulated millisecond lands on exactly one op key). *)
}
(** Where a kernel launch came from.  Attached at lowering/runtime time so
    {!Stats} can attribute simulated time back to IR operators and passes
    (the per-op breakdowns of the paper's evaluation). *)

val provenance : ?step:int -> ?fused:string list -> origin:string -> string -> provenance
(** [provenance ~origin op] builds a tag (default [step = -1],
    [fused = \[\]]). *)

val unattributed : string
(** The pseudo-op name launches without provenance are attributed to. *)

type t = {
  name : string;  (** kernel identifier, e.g. ["gemm_3"] *)
  category : category;
  grid_blocks : int;  (** thread blocks in the launch *)
  threads_per_block : int;
  flops : float;  (** total floating-point operations *)
  bytes_coalesced : float;  (** streaming/coalesced global traffic *)
  bytes_gathered : float;  (** row-granular gather/scatter traffic *)
  bytes_atomic : float;  (** traffic through atomic read-modify-writes *)
  graph_proportional : bool;
      (** when true the engine multiplies work, traffic and grid size by the
          graph's cost scale (logical-size accounting; see DESIGN.md) *)
  prov : provenance option;  (** attribution tag, [None] for untagged launches *)
}

val make :
  name:string ->
  category:category ->
  ?grid_blocks:int ->
  ?threads_per_block:int ->
  ?flops:float ->
  ?bytes_coalesced:float ->
  ?bytes_gathered:float ->
  ?bytes_atomic:float ->
  ?graph_proportional:bool ->
  ?provenance:provenance ->
  unit ->
  t
(** Build a descriptor; work/traffic default to 0, geometry to one block of
    256 threads, [graph_proportional] to [true] (most RGNN kernels scale
    with the graph). *)

val total_bytes : t -> float
(** Sum of the three traffic classes. *)

val op_of : t -> string
(** The provenance op of a kernel, or {!unattributed}. *)
