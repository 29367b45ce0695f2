(* The metric registry: every number the harness reports, with its unit,
   its direction and the share by which it may worsen, seed for seed,
   before [hbench --compare] calls it a regression.

   A bound of 0 marks a metric fixed by the seed: simulated-clock times,
   device memory and counts, all read over the first cycle of a workload's
   schedule, so runs of one seed agree on it digit for digit.
   Every other metric is timed on the host (or, for the live heap and
   minor words, varies by a few words) and has a bound set from the
   spread of same-seed runs taken at different times.

   The bounds in BENCHMARK.json are a different tolerance: how far the
   median over ten different seeds may move.  They cover the spread that
   seeded inputs cause between seeds, so most are wider.

   "op" is the unit of work of a workload: a training step (train_full), a
   request (serve_open, stream_rw) or a data-parallel epoch (dist_p4). *)

type better = Lower | Higher

type t = { name : string; unit : string; better : better; bound : float }

let m ?(better = Lower) name unit bound = { name; unit; better; bound }

(* fixed by the seed *)
let exact ?better name unit = m ?better name unit 0.0

(* timed on the host *)
let host ?better name unit = m ?better name unit 0.25

let end_to_end =
  [
    m "setup_s" "s" 0.25;
    m "host_ms_per_op" "ms" 0.10;
    exact "sim_ms_per_op" "sim-ms";
    exact "p50_sim_ms" "sim-ms";
    exact "p99_sim_ms" "sim-ms";
    exact "gpu_peak_mb" "MB";
    (* the live heap at the same point of the first cycle: a few words vary *)
    m "host_live_mb" "MB" 0.05;
    exact "failed_frac" "ratio";
    (* workload-specific *)
    exact "max_rps_sim" "req/s" ~better:Higher;
    m "ingest_ms" "ms" 0.10;
    m "rewarm_ms" "ms" 0.10;
  ]

let per_layer =
  let pass p = host ("core.pass_ms." ^ p) "ms" in
  let step k = host ("exec.step_ms." ^ k) "ms" in
  let sim c = exact ("gpu.sim_ms." ^ c) "sim-ms" in
  [ host "core.compile_ms" "ms" ]
  @ List.map pass
      [ "check"; "loop_transform"; "linear_fusion"; "autodiff"; "lowering"; "inter_op_fusion"; "buffer_plan" ]
  @ [ exact "core.plan_steps" "count"; host "exec.forward_ms" "ms"; host "exec.backward_ms" "ms" ]
  @ List.map step [ "gemm"; "traversal"; "fused"; "weight_op"; "fallback" ]
  @ [
      host "exec.teardown_ms" "ms";
      host "runtime.loss_ms" "ms";
      host "runtime.sgd_ms" "ms";
      host "exec.warm_ms" "ms";
      m "exec.host_sim_ratio" "ratio" 0.10;
      exact "tensor.allocs_per_op" "count";
      exact "tensor.copied_bytes_per_op" "B";
      (* over the first cycle too, but a few words of millions vary *)
      m "host.minor_words_per_op" "words" 0.01;
      exact "host.major_gcs_per_op" "count";
      host "tensor.gemm_gflops" "GFLOP/s" ~better:Higher;
      host "tensor.domain_speedup_2v1" "ratio" ~better:Higher;
      exact "gpu.launches_per_op" "count";
    ]
  @ List.map sim [ "gemm"; "traversal"; "copy"; "reduction"; "comm"; "host_sync" ]
  @ [
      exact "gpu.device_allocs_per_op" "count";
      host "graph.generate_ms" "ms";
      host "graph.partition_ms" "ms";
      host "graph.sample_union_ms" "ms";
      exact "graph.block_nodes" "count";
      exact "graph.block_edges" "count";
      host "graph.csr_incoming_ms" "ms";
      host "serve.batch_ms" "ms";
      host "serve.batch_self_ms" "ms";
      host "serve.loop_self_us_per_request" "us";
      exact "serve.mean_batch" "count";
      exact "serve.queue_sim_ms" "sim-ms";
      exact "serve.plan_cache_misses" "count";
      host "stream.mg_apply_ms" "ms";
      exact "stream.patched_rows_per_delta" "count";
      exact "stream.csr_rebuilds_per_kdelta" "count";
      exact "stream.compactions_per_delta" "count";
      exact "stream.epoch_bumps_per_kdelta" "count";
      exact "stream.recompiles" "count";
      exact "stream.update_sim_ms_per_kop" "sim-ms";
      host "dist.exec_ms_per_epoch" "ms";
      host "dist.host_overhead_ms_per_epoch" "ms";
      exact "dist.comm_exposed_ratio" "ratio";
      exact "dist.posted_comm_ms_per_epoch" "sim-ms";
      exact "dist.edge_cut_frac" "ratio";
      exact "dist.halo_rows" "count";
      host "obs.trace_overhead_frac" "ratio";
      host "obs.layer_residual_frac" "ratio";
    ]

let all = end_to_end @ per_layer

let find_opt name = List.find_opt (fun x -> String.equal x.name name) all

let find name =
  match find_opt name with Some x -> x | None -> invalid_arg ("hbench: unregistered metric " ^ name)

let is_end_to_end x = List.memq x end_to_end

let better_name = function Lower -> "lower" | Higher -> "higher"
