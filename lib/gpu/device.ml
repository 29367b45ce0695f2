type t = {
  name : string;
  sm_count : int;
  max_threads_per_sm : int;
  peak_gflops : float;
  mem_bandwidth_gbs : float;
  gather_efficiency : float;
  atomic_bandwidth_gbs : float;
  launch_overhead_us : float;
  global_mem_bytes : float;
  reserved_bytes : float;
  pcie_bandwidth_gbs : float;
}

let rtx3090 =
  {
    name = "RTX 3090";
    sm_count = 82;
    max_threads_per_sm = 1536;
    peak_gflops = 19_000.0;
    mem_bandwidth_gbs = 840.0;
    gather_efficiency = 0.55;
    atomic_bandwidth_gbs = 190.0;
    launch_overhead_us = 9.0;
    global_mem_bytes = 24.0e9;
    reserved_bytes = 1.5e9;
    pcie_bandwidth_gbs = 12.0;
  }

let a100_40gb =
  {
    name = "A100 40GB";
    sm_count = 108;
    max_threads_per_sm = 2048;
    peak_gflops = 18_000.0;
    mem_bandwidth_gbs = 1400.0;
    gather_efficiency = 0.6;
    atomic_bandwidth_gbs = 320.0;
    launch_overhead_us = 9.0;
    global_mem_bytes = 40.0e9;
    reserved_bytes = 1.5e9;
    pcie_bandwidth_gbs = 24.0;
  }

