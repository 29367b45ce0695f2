(** GPU device descriptions for the execution simulator.

    The parameters are the first-order determinants of RGNN kernel
    performance identified by the paper (§2.3): peak arithmetic throughput
    (GEMM-bound work), memory bandwidth (traversal-bound work), kernel
    launch overhead (many small per-relation launches), device memory
    capacity (OOM behaviour) and SM resources (occupancy of small grids). *)

type t = {
  name : string;
  sm_count : int;  (** number of streaming multiprocessors *)
  max_threads_per_sm : int;  (** resident-thread capacity per SM *)
  peak_gflops : float;  (** sustainable fp32 GEMM throughput, GFLOP/s *)
  mem_bandwidth_gbs : float;  (** sustainable global-memory bandwidth, GB/s *)
  gather_efficiency : float;
      (** fraction of peak bandwidth achieved by row-granular
          gather/scatter access (on-the-fly access schemes) *)
  atomic_bandwidth_gbs : float;  (** effective throughput of atomic updates *)
  launch_overhead_us : float;  (** per-kernel launch + framework dispatch cost *)
  global_mem_bytes : float;  (** device memory capacity *)
  reserved_bytes : float;
      (** memory unavailable to tensors: CUDA context, framework caching
          allocator reserve, cuDNN workspaces — typically 1–2 GB on a
          PyTorch stack *)
  pcie_bandwidth_gbs : float;
      (** host→device transfer bandwidth (minibatch feature copies) *)
}

val rtx3090 : t
(** The evaluation GPU of the paper: NVIDIA RTX 3090, 24 GB, 936 GB/s,
    82 SMs.  [peak_gflops] is set to a sustainable (not theoretical-peak)
    fp32 GEMM rate; [launch_overhead_us] includes typical PyTorch-level
    dispatch cost, which is what serial per-relation loops pay. *)

val a100_40gb : t
(** A second device profile (NVIDIA A100 40 GB) used by ablation benches to
    show cost-model sensitivity to the architecture, cf. §6 "specific
    microarchitecture of each GPU model also makes a difference". *)
