(** Behavioural models of the prior systems Hector is evaluated against
    (paper §4.1–4.2, §5, Table 2).

    Each function charges a {!Recipe.t} with the kernel launches, host
    dispatch gaps and intermediate allocations that system performs for one
    epoch of the given model, following the papers' descriptions:

    - {b DGL}: segment-MM based typed linear layers for RGCN and HGT (its
      best primitives), but a Python per-relation loop of small kernels for
      RGAT; index_select copies around every gather.
    - {b PyG}: [FastRGCNConv] replicates the weight per edge to use
      [bmm()] (extra copies and a per-edge weight tensor that OOMs large
      graphs); [RGCNConv] runs a per-type loop of small kernels; RGAT/HGT
      follow the generic per-relation path.
    - {b Seastar}: vertex-centric compiled kernels — traversal work is well
      fused and aggregation avoids atomics, but typed linear layers run
      inside the vertex-centric kernels with per-edge weight access (no
      shared-memory tiling, limited reuse), and weights are gathered
      per-edge ("replicate weights to unleash parallelism").
    - {b Graphiler}: TorchScript-compiled inference with strong
      pre-programmed fused kernels for RGCN/HGT (close to Hector, §4.2)
      plus indexing/copy overhead (Figure 1); RGAT misses the fused path
      and decomposes into materialized edge-wise operations.  Training
      unsupported.
    - {b HGL}: training-oriented compiler with inter-operator fusion but no
      segment-MM, data-layout or intra-operator schedule optimization; HGT
      unsupported; inference not measured (§4.1).

    All functions raise {!Recipe.Unsupported} for combinations the real
    system cannot run, and propagate {!Hector_gpu.Memory.Out_of_memory}
    when their intermediates exceed device memory at paper scale. *)

val dgl : Recipe.t -> model:string -> training:bool -> unit
val pyg_fast : Recipe.t -> model:string -> training:bool -> unit
val pyg_loop : Recipe.t -> model:string -> training:bool -> unit
val seastar : Recipe.t -> model:string -> training:bool -> unit
val graphiler : Recipe.t -> model:string -> training:bool -> unit
val hgl : Recipe.t -> model:string -> training:bool -> unit
