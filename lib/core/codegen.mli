(** CUDA-like source rendering of compiled plans (paper §3.6).

    The real Hector emits CUDA kernels as [__device__] functions wrapped in
    [__global__] entry points plus libtorch host functions.  Our runtime
    executes plans directly (on the simulator), but this module renders the
    source the code generator {e would} emit — specialization of the two
    templates with the chosen access schemes and schedules — so the
    examples and tests can inspect the generated code, and documentation
    can show it. *)

val gemm_kernel : Layout.t -> Gemm_spec.t -> string
(** CUDA-like source of one GEMM-template instance (Algorithm 1
    specialized: gather/scatter/transpose access schemes, tile width,
    coarsening, [__launch_bounds__]). *)

val traversal_kernel :
  ?spaces:(Inter_ir.var * Materialization.space) list -> Layout.t -> Traversal_spec.t -> string
(** CUDA-like source of one traversal-template instance (Algorithm 2
    specialized: adjacency closures per the encoding, statements in the
    loop body with the row-indexing of each variable's space, register
    locals, atomic vs warp-accumulated updates).  A body whose recorded
    passes do more than sweep it once renders each pass in order: its
    pair loops (pair-local statements, and hoisted reductions stored into
    pair scratch), then its sweep, which reads each hoisted reduction from
    its pair's scratch row. *)

val emit_plan : Plan.t -> string
(** Full translation unit for one plan: all kernels plus the host
    function. *)
