(* What every workload shares: the run configuration, the outcome it fills
   in, timed set-ups and windows, host and device counters, and the span
   analysis of traced runs. *)

module Obs = Hector_obs
module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory

let now = Unix.gettimeofday

type cfg = {
  seed : int;
  seconds : float;  (** timed-window length *)
  setups : int;  (** cold set-ups whose median is [setup_s] *)
  traced : bool;
}

type outcome = {
  mutable values : (string * float) list;
  mutable samples : (string * Sample.summary) list;  (** the method block *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable layer_table : (string * float) list;  (** layer -> self ms per op *)
  mutable trace_events : string list;  (** Chrome-trace fragments of the traced window *)
}

let outcome () =
  {
    values = [];
    samples = [];
    attempted = 0;
    failed = 0;
    failures = [];
    layer_table = [];
    trace_events = [];
  }

let set o name v =
  ignore (Metric.find name);
  o.values <- (name, v) :: List.remove_assoc name o.values

let value o name = List.assoc name o.values
let record o name xs = o.samples <- (name, Sample.summary xs) :: List.remove_assoc name o.samples

let fail o msg =
  o.failed <- o.failed + 1;
  o.failures <- msg :: o.failures

(* One correctness check: counted as attempted, and as failed unless [ok]. *)
let check o ok msg =
  o.attempted <- o.attempted + 1;
  if not ok then fail o msg

let span obs name f = Obs.time obs ~kind:"bench" name f

(* --- reference-speed calibration ----------------------------------------

   On a shared box, co-tenant load slows every host computation by up to
   1.8x, in episodes from a tenth of a second to minutes, and a fixed
   float loop slows in step with the workload (README.md, "Method").  The
   loop below is timed after every op of a window; an op is reported at
   reference speed — its wall time x [reference_ms] / (mean of the loop
   timings just before and just after it) — and a workload's host time is
   the median of those per-op values over the ops that ran in the box's
   fast state, which cancels the slowdown even for ops longer than a slow
   episode.  The loop works on 8 KB, so cache
   state left behind by an op cannot move it, and it is the benchmark's
   own code, so no change to the system under test can. *)

let reference_ms = 1.0
let ref_data = Array.init 1024 (fun i -> float_of_int i *. 1e-3)

let ref_loop () =
  let s = ref 0.0 in
  for _ = 1 to 1000 do
    for i = 0 to Array.length ref_data - 1 do
      s := !s +. (ref_data.(i) *. ref_data.(i))
    done
  done;
  ignore (Sys.opaque_identity !s)

let probe buf =
  let t0 = now () in
  ref_loop ();
  Sample.push buf ((now () -. t0) *. 1e3)

let probes n =
  let buf = Sample.buf () in
  for _ = 1 to n do
    probe buf
  done;
  Sample.contents buf

(* [cfg.setups] cold set-ups, each built on a compacted heap after the
   previous one is dropped.  Returns the last one, kept for the timed
   window, and their median wall time in seconds. *)
let timed_setups cfg o build =
  let times = Array.make (max 1 cfg.setups) 0.0 in
  let last = ref None in
  Array.iteri
    (fun i _ ->
      last := None;
      Gc.compact ();
      let t0 = now () in
      let st = build Obs.disabled in
      times.(i) <- now () -. t0;
      last := Some st)
    times;
  record o "setup_wall_s" times;
  (Option.get !last, Sample.median times)

(* A finished window: [ops] ops ran, and [refs.(k)] is the loop timing
   taken right after op [k] ([start] before op 0). *)
type window = { ops : int; start : float; refs : float array }

(* Run [op k] for k = 0, 1, ... until [seconds] of wall time have passed
   and at least [min_ops] ops ran (one full cycle of a workload's schedule,
   so the deterministic metrics never depend on host speed), timing the
   reference loop after each op. *)
let window ~seconds ~min_ops op =
  let start = Sample.median (probes 5) in
  let refs = Sample.buf () in
  let stop = now () +. seconds in
  let k = ref 0 in
  while !k < min_ops || now () < stop do
    op !k;
    probe refs;
    incr k
  done;
  { ops = !k; start; refs = Sample.contents refs }

(* The loop timings around op [k], and its reference-speed factor. *)
let pair w k = ((if k = 0 then w.start else w.refs.(k - 1)) +. w.refs.(k)) /. 2.0
let factor w k = reference_ms /. pair w k

(* Whether op [k] ran with the box in its fast state.  A slowdown
   stretches the compute-bound loop more than the workload's memory-bound
   code, so fast-state ops calibrate closest. *)
let fast_op w =
  let cut = 1.1 *. Sample.lower_quartile w.refs in
  fun k -> pair w k <= cut

(* Host times of repeats of one piece of work: [(k, ms)] timed during op
   [k]. *)
type series = { mutable items : (int * float) list }

let series () = { items = [] }
let add s k ms = s.items <- (k, ms) :: s.items
let raw s = Array.of_list (List.rev_map snd s.items)
let calibrate w items = Array.of_list (List.rev_map (fun (k, ms) -> ms *. factor w k) items)
let at_ref w s = calibrate w s.items

(* Median host time of a series at reference speed, over its fast-state
   samples when at least one and a quarter of them are, else over all of
   them (a box slow for the whole window). *)
let host_median w s =
  let fast = fast_op w in
  let sel = List.filter (fun (k, _) -> fast k) s.items in
  Sample.median (calibrate w (if List.length sel >= max 1 (List.length s.items / 4) then sel else s.items))

(* Host time per op of a window.  A workload rotates through groups (the
   sessions, clusters or graph draws of its schedule); an op of a group is
   the sum of one series per step (one step for most workloads, a round
   of an episode for [stream_rw]), each at its median, and the metric is
   the geometric mean over groups. *)
let host_of w groups =
  Sample.gmean
    (List.map (fun (_, ss) -> List.fold_left (fun acc s -> acc +. host_median w s) 0.0 ss) groups)

(* The host-time metrics of a run, from the median set-up wall time
   [setup_wall] and the untraced window [w]: [setup_s] and
   [host_ms_per_op].  A set-up lasts a second or more, so it follows the
   box's average speed over seconds: the median loop timing of the window
   right after it calibrates it, where the few timings at its ends would
   not. *)
let set_host o w ~setup_wall groups =
  set o "setup_s" (setup_wall *. reference_ms /. Sample.median w.refs);
  set o "host_ms_per_op" (host_of w groups);
  record o "reference_ms" w.refs;
  List.iter
    (fun (label, ss) -> record o ("host_ms_per_op" ^ label) (Array.concat (List.map (at_ref w) ss)))
    groups

(* --- host counters ---------------------------------------------------- *)

type host = { minor_words : float; major_gcs : int; allocs : int; copied : int }

let host () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_gcs = s.Gc.major_collections;
    allocs = Tensor.allocation_count ();
    copied = Tensor.copied_bytes ();
  }

(* Per-op host counters from [a] and [b], taken around the first cycle of
   the schedule ([ops] ops), so they do not depend on host speed. *)
let set_host_per_op o ~ops a b =
  let per x = x /. float_of_int ops in
  set o "tensor.allocs_per_op" (per (float_of_int (b.allocs - a.allocs)));
  set o "tensor.copied_bytes_per_op" (per (float_of_int (b.copied - a.copied)));
  set o "host.minor_words_per_op" (per (b.minor_words -. a.minor_words));
  set o "host.major_gcs_per_op" (per (float_of_int (b.major_gcs - a.major_gcs)))

(* OCaml heap still reachable after a full compaction, with [keep] (the
   workload's state) held live across it.  Workloads take it between ops
   at the end of their first cycle, where the heap is a function of the
   seed alone (later, serving latency ledgers grow with host speed). *)
let live_mb keep =
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* --- simulated device counters ---------------------------------------- *)

type dev = { cat_ms : (string * float) list; sync_ms : float; launches : int; dallocs : int }

let dev engines =
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0.0 engines in
  {
    cat_ms =
      List.map
        (fun c ->
          ( Kernel.category_name c,
            sum (fun e -> (Stats.of_category (Engine.stats e) c).Stats.time_ms) ))
        Kernel.all_categories;
    sync_ms = sum (fun e -> (Stats.of_op (Engine.stats e) Stats.sync_op).Stats.time_ms);
    launches =
      List.fold_left (fun acc e -> acc + (Stats.total (Engine.stats e)).Stats.launches) 0 engines;
    dallocs = List.fold_left (fun acc e -> acc + Memory.alloc_count (Engine.memory e)) 0 engines;
  }

let dev_zero = { cat_ms = []; sync_ms = 0.0; launches = 0; dallocs = 0 }

let dev_add a b =
  {
    cat_ms =
      List.map
        (fun (c, ms) -> (c, ms +. Option.value (List.assoc_opt c a.cat_ms) ~default:0.0))
        b.cat_ms;
    sync_ms = a.sync_ms +. b.sync_ms;
    launches = a.launches + b.launches;
    dallocs = a.dallocs + b.dallocs;
  }

let dev_sub b a =
  {
    cat_ms = List.map (fun (c, ms) -> (c, ms -. List.assoc c a.cat_ms)) b.cat_ms;
    sync_ms = b.sync_ms -. a.sync_ms;
    launches = b.launches - a.launches;
    dallocs = b.dallocs - a.dallocs;
  }

(* Per-op device metrics from the change [d] over [ops] ops. *)
let set_dev_per_op o ~ops d =
  let per x = x /. float_of_int ops in
  List.iter
    (fun (c, ms) ->
      let name = "gpu.sim_ms." ^ c in
      if List.exists (fun (x : Metric.t) -> String.equal x.Metric.name name) Metric.all then
        set o name (per ms))
    d.cat_ms;
  set o "gpu.sim_ms.host_sync" (per d.sync_ms);
  set o "gpu.launches_per_op" (per (float_of_int d.launches));
  set o "gpu.device_allocs_per_op" (per (float_of_int d.dallocs))

(* Peak simulated device memory, averaged over a workload's devices
   (sessions, servers or replicas): the mean moves with every device's
   footprint, where the maximum would follow whichever partition or graph
   draw happens to be largest. *)
let peak_mb engines =
  List.fold_left (fun acc e -> acc +. Memory.peak_bytes (Engine.memory e)) 0.0 engines
  /. float_of_int (List.length engines)
  /. 1e6

(* --- span analysis of traced runs -------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let ends_with ~suffix s =
  let n = String.length s and k = String.length suffix in
  n >= k && String.equal (String.sub s (n - k) k) suffix

(* The library a span's self time belongs to: compiler passes to [core],
   plan executions to [exec], everything else (bench spans are named
   [<layer>.<what>], serving spans [serve.*]) by its name's prefix. *)
let layer_of (s : Obs.span) =
  if String.equal s.Obs.kind "pass" then "core"
  else if starts_with ~prefix:"run_plan:" s.Obs.name then "exec"
  else match String.index_opt s.Obs.name '.' with Some i -> String.sub s.Obs.name 0 i | None -> s.Obs.name

let self_ms (s : Obs.span) =
  s.Obs.duration_ms -. List.fold_left (fun acc (c : Obs.span) -> acc +. c.Obs.duration_ms) 0.0 s.Obs.children

let rec iter_spans f spans =
  List.iter
    (fun (s : Obs.span) ->
      f s;
      iter_spans f s.Obs.children)
    spans

let sum_spans spans pred =
  let total = ref 0.0 in
  iter_spans (fun s -> if pred s then total := !total +. s.Obs.duration_ms) spans;
  !total

let named name (s : Obs.span) = String.equal s.Obs.name name

let run_plan ~backward (s : Obs.span) =
  starts_with ~prefix:"run_plan:" s.Obs.name
  && ends_with ~suffix:"_backward" s.Obs.name = backward

(* Compiler metrics of one traced set-up: total time per pass span. *)
let set_compile o spans =
  let put metric pred =
    let ms = sum_spans spans pred in
    if ms > 0.0 then set o metric ms
  in
  put "core.compile_ms" (named "compile");
  List.iter
    (fun p -> put ("core.pass_ms." ^ p) (named p))
    [ "check"; "loop_transform"; "linear_fusion"; "autodiff"; "inter_op_fusion"; "buffer_plan" ];
  put "core.pass_ms.lowering" (fun s -> named "lowering.forward" s || named "lowering.backward" s)

(* The layer table of a traced window: the self time of every span under
   the op spans, summed per layer and divided by the op count.  Self times
   telescope, so the table sums to the op spans' total; the residual is
   the op wall time the harness measured outside them. *)
let set_layers o ~ops ~wall_ms op_spans =
  let tbl = Hashtbl.create 8 in
  iter_spans
    (fun s ->
      let l = layer_of s in
      Hashtbl.replace tbl l (self_ms s +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    op_spans;
  let total = Hashtbl.fold (fun _ ms acc -> acc +. ms) tbl 0.0 in
  o.layer_table <-
    Hashtbl.fold (fun l ms acc -> (l, ms /. float_of_int ops) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a);
  set o "obs.layer_residual_frac" ((wall_ms -. total) /. wall_ms);
  set o "exec.forward_ms" (sum_spans op_spans (run_plan ~backward:false) /. float_of_int ops);
  let bwd = sum_spans op_spans (run_plan ~backward:true) in
  if bwd > 0.0 then set o "exec.backward_ms" (bwd /. float_of_int ops)

(* Chrome-trace fragments of the traced window, capped so one file stays
   loadable. *)
let keep_trace o obs =
  o.trace_events <- List.filteri (fun i _ -> i < 20_000) (Obs.trace_events obs ~pid:2)

let csr_incoming_ms o graph =
  let reps = 5 in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Hector_graph.Csr.incoming graph))
  done;
  set o "graph.csr_incoming_ms" ((now () -. t0) *. 1e3 /. float_of_int reps)

(* A direct kernel probe at train_full's dominant shape — the edgewise
   typed linear: 9,000 gathered rows of a 2,993 x 64 feature matrix times a
   64 x 16 weight.  The 2-domain leg runs last in a traced run: a spawned
   worker domain joins every later minor collection. *)
let gemm_probe o ~seed =
  let module Rng = Hector_tensor.Rng in
  let module Pool = Hector_tensor.Domain_pool in
  let rng = Rng.create (seed + 101) in
  let rows = 9000 and nodes = 2993 and k = 64 and n = 16 in
  let a = Tensor.randn rng [| nodes; k |] and b = Tensor.randn rng [| k; n |] in
  let idx = Array.init rows (fun _ -> Rng.int rng nodes) in
  let c = Tensor.zeros [| rows; n |] in
  let per_call () =
    let batch () =
      let t0 = now () in
      for _ = 1 to 3 do
        Tensor.matmul_gather_into a ~idx b c
      done;
      (now () -. t0) /. 3.0
    in
    Sample.median (Array.init 5 (fun _ -> batch ()))
  in
  let t1 = per_call () in
  Pool.set_num_domains (Some 2);
  let t2 = per_call () in
  Pool.set_num_domains (Some 1);
  set o "tensor.gemm_gflops" (2.0 *. float_of_int (rows * k * n) /. t1 /. 1e9);
  set o "tensor.domain_speedup_2v1" (t1 /. t2)

(* Seeded class labels, one per node. *)
let labels ~seed n =
  let rng = Hector_tensor.Rng.create ((seed * 7) + 1) in
  Array.init n (fun _ -> Hector_tensor.Rng.int rng 16)

(* Outputs checked against the independent reference models. *)
let oracle_tol = 1e-4

let check_close o ~what got want =
  let d = Tensor.max_abs_diff got want in
  check o (d <= oracle_tol) (Printf.sprintf "%s: max |diff| %.3g vs reference" what d)
