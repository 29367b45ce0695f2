(* The hector command-line tool.

   Subcommands:
     hector compile  -m rgat --compact --fusion        show plan + CUDA
     hector run      -m hgt -d fb15k --training        run on the simulator
     hector serve    -m rgcn -d aifb --rate 500        batched inference serving
     hector stream   -m rgcn -d aifb --deltas 8         serving over a mutating graph
     hector partition -d am --parts 4                  typed-edge graph partitioning
     hector checkpoint -m rgcn -d aifb --dir /tmp/ck    checkpointed training / resume
     hector datasets                                   list dataset replicas
     hector baselines -m rgat -d am                    compare prior systems *)

open Cmdliner

module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Session = Hector_runtime.Session
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module G = Hector_graph.Hetgraph
module Ds = Hector_graph.Datasets
module B = Hector_baselines.Baselines
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Fault = Hector_ckpt.Fault
module Checkpoint = Hector_ckpt.Checkpoint
module Trainer = Hector_ckpt.Trainer

let model_arg =
  let doc = "Model: rgcn, rgat or hgt." in
  Arg.(value & opt string "rgat" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let dataset_arg =
  let doc = "Dataset replica (Table 4 name: aifb, mutag, bgs, am, mag, wikikg2, fb15k, biokg)." in
  Arg.(value & opt string "fb15k" & info [ "d"; "dataset" ] ~docv:"DATASET" ~doc)

let compact_arg =
  Arg.(value & flag & info [ "compact" ] ~doc:"Enable compact materialization (configuration C).")

let fusion_arg =
  Arg.(value & flag & info [ "fusion" ] ~doc:"Enable linear-operator fusion (configuration F).")

let training_arg =
  Arg.(value & flag & info [ "training" ] ~doc:"Compile/measure the training step, not inference.")

let cuda_arg = Arg.(value & flag & info [ "cuda" ] ~doc:"Print the full generated CUDA-like code.")

let no_fuse_arg =
  Arg.(value & flag
       & info [ "no-fuse" ]
           ~doc:"Disable the compiler's inter-op kernel-fusion pass (reproduces the \
                 pre-fusion plans bit-for-bit; when serving, these explicit options \
                 take precedence over --db).  Default: fusion on.")

let db_arg =
  Arg.(value & opt (some string) None
       & info [ "db" ] ~docv:"PATH"
           ~doc:"Tuning-database JSON file: `hector autotune` records its winner there and \
                 `hector serve` resolves its compiler options from it at admission.  \
                 Default: no database.")

(* A library constructor rejecting a flag's value raises [Invalid_argument]:
   report it as one usage line and exit 2, like Cmdliner's own errors. *)
let or_usage_error cmd f =
  match f () with
  | v -> v
  | exception Invalid_argument msg ->
      Printf.eprintf "hector %s: %s\n" cmd msg;
      exit 2

(* An [int] converter that rejects values below 1 as a usage error. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let max_edges_arg =
  Arg.(value & opt positive_int 6000
       & info [ "max-edges" ] ~docv:"N" ~doc:"Physical edge cap per replica (at least 1).")

let compile_model model ~training ~compact ~fusion ~no_fuse =
  let program = Hector_models.Model_defs.by_name model () in
  let options =
    Compiler.options_of_flags ~training ~fuse_ops:(not no_fuse) ~compact ~fusion ()
  in
  Compiler.compile ~options program

(* [--no-fuse] for the serving commands: explicit options, which take
   precedence over the tuning-database ladder. *)
let serve_options ~no_fuse =
  if no_fuse then Some { Compiler.default_options with Compiler.fuse_ops = false }
  else None

let cmd_compile =
  let run model compact fusion training cuda no_fuse =
    let compiled = compile_model model ~training ~compact ~fusion ~no_fuse in
    Format.printf "%a@." Plan.pp compiled.Compiler.forward;
    (match compiled.Compiler.backward with
    | Some b ->
        Format.printf "@.backward plan: %d GEMM, %d traversal steps@." (Plan.gemm_count b)
          (Plan.traversal_count b)
    | None -> ());
    if cuda then
      print_endline (Hector_core.Codegen.emit_plan compiled.Compiler.forward)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and show its plan (and optionally the CUDA).")
    Term.(const run $ model_arg $ compact_arg $ fusion_arg $ training_arg $ cuda_arg
          $ no_fuse_arg)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~doc:"Write a Chrome-tracing timeline of the run to FILE.")

let cmd_run =
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "ckpt" ] ~docv:"DIR"
             ~doc:"After the run, save a checkpoint of the session (weights + RNG cursor) \
                   under DIR (see also `hector checkpoint`).")
  in
  let run model dataset compact fusion training max_edges trace_file ckpt_dir no_fuse =
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    let compiled = compile_model model ~training ~compact ~fusion ~no_fuse in
    try
      let session =
        Session.create
          ~config:{ Session.Config.default with seed = 7; trace = trace_file <> None }
          ~graph compiled
      in
      (if training then
         let rng = Hector_tensor.Rng.create 5 in
         let labels =
           Array.init graph.G.num_nodes (fun _ ->
               Hector_tensor.Rng.int rng (Session.output_dim session))
         in
         let loss = Session.train_step session ~labels () in
         Printf.printf "loss: %.4f\n" loss
       else ignore (Session.forward session));
      Option.iter
        (fun dir ->
          let step = if training then 1 else 0 in
          let path = Checkpoint.save ~dir (Trainer.snapshot ~model ~step session) in
          Printf.printf "checkpoint written to %s\n" path)
        ckpt_dir;
      Printf.printf "simulated time (paper scale): %.3f ms\n"
        (Engine.elapsed_ms (Session.engine session));
      Printf.printf "peak device memory: %.2f GB\n"
        (Memory.peak_bytes (Engine.memory (Session.engine session)) /. 1e9);
      Format.printf "%a@." Stats.pp_breakdown (Engine.stats (Session.engine session));
      Option.iter
        (fun file ->
          let oc = open_out file in
          output_string oc (Engine.to_chrome_trace (Session.engine session));
          close_out oc;
          Printf.printf "trace written to %s\n" file)
        trace_file
    with Memory.Out_of_memory { used_gb; requested_gb; capacity_gb } ->
      Printf.printf "OOM: %.1f GB used + %.1f GB requested > %.1f GB capacity\n" used_gb
        requested_gb capacity_gb
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a model on a dataset replica on the simulated GPU.")
    Term.(const run $ model_arg $ dataset_arg $ compact_arg $ fusion_arg $ training_arg
          $ max_edges_arg $ trace_arg $ ckpt_arg $ no_fuse_arg)

let cmd_datasets =
  let run max_edges =
    Printf.printf "%-9s %8s %8s %12s %12s %8s\n" "name" "#ntypes" "#etypes" "log.nodes"
      "log.edges" "scale";
    List.iter
      (fun (info : Ds.info) ->
        let g = Ds.load ~max_edges info in
        Printf.printf "%-9s %8d %8d %12d %12d %8.0f\n" info.Ds.name info.Ds.num_ntypes
          info.Ds.num_etypes (G.logical_nodes g) (G.logical_edges g) g.G.scale)
      Ds.all
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the dataset replicas.") Term.(const run $ max_edges_arg)

let cmd_baselines =
  let run model dataset training max_edges =
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    Printf.printf "%-10s %s\n" "system" "outcome";
    List.iter
      (fun system ->
        Format.printf "%-10s %a@." (B.system_name system) B.pp_outcome
          (B.run system ~model ~training ~graph))
      B.all_systems
  in
  Cmd.v
    (Cmd.info "baselines" ~doc:"Run the baseline systems' behavioural models.")
    Term.(const run $ model_arg $ dataset_arg $ training_arg $ max_edges_arg)

let cmd_serve =
  let rate_arg =
    Arg.(value & opt float 500.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop arrival rate, requests per second.")
  in
  let requests_arg =
    Arg.(value & opt int 64 & info [ "requests" ] ~docv:"N" ~doc:"Number of requests to replay.")
  in
  let seeds_arg =
    Arg.(value & opt int 4
         & info [ "seeds-per-request" ] ~docv:"K" ~doc:"Seed nodes per request.")
  in
  let batch_arg =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~docv:"B"
             ~doc:"Micro-batch cap (default 8).")
  in
  let queue_arg =
    Arg.(value & opt (some int) None
         & info [ "queue" ] ~docv:"Q"
             ~doc:"Admission queue bound (default 64).")
  in
  let wait_arg =
    Arg.(value & opt float 20.0
         & info [ "max-wait" ] ~docv:"MS"
             ~doc:"Batching deadline past the oldest queued arrival, simulated ms.")
  in
  let fanout_arg =
    Arg.(value & opt int 8 & info [ "fanout" ] ~docv:"F" ~doc:"Sampler fanout per hop.")
  in
  let hops_arg =
    Arg.(
      value & opt int 2
      & info [ "hops" ] ~docv:"H"
          ~doc:
            "Upper bound on the sampling depth: each batch samples only as many hops as the \
             model's forward reads.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload generator seed.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print only the JSON load report.")
  in
  let fault_rate_arg =
    Arg.(value & opt (some float) None
         & info [ "fault-rate" ] ~docv:"R"
             ~doc:"Inject engine failures: each micro-batch fails with probability R in \
                   [0,1] (deterministic in --fault-seed); failed members are retried once, \
                   then shed.  Default: off.")
  in
  let fault_seed_arg =
    Arg.(value & opt int 1
         & info [ "fault-seed" ] ~docv:"S" ~doc:"Seed of the injected fault plan.")
  in
  let run model dataset max_edges rate requests seeds batch queue wait fanout hops seed json
      fault_rate fault_seed db no_fuse =
    if not (rate > 0.0) then (
      Printf.eprintf "hector serve: --rate must be positive\n";
      exit 2);
    (match fault_rate with
    | Some r when not (r >= 0.0 && r <= 1.0) ->
        Printf.eprintf "hector serve: --fault-rate must be in [0,1]\n";
        exit 2
    | _ -> ());
    let faults =
      Option.map (fun r -> Fault.create ~seed:fault_seed ~rate:r ()) fault_rate
    in
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    let program = Hector_models.Model_defs.by_name model () in
    let config =
      {
        Serve.default_config with
        Serve.model;
        fanout;
        hops;
        max_batch = batch;
        max_wait_ms = wait;
        queue_capacity = queue;
        options = serve_options ~no_fuse;
        tune_db = db;
        faults;
      }
    in
    let server, trace =
      or_usage_error "serve" (fun () ->
          let server = Serve.create ~config ~graph program in
          ( server,
            Workload.generate
              ~spec:{ Workload.seed; rate_rps = rate; requests; seeds_per_request = seeds }
              ~num_nodes:graph.G.num_nodes () ))
    in
    ignore (Serve.serve server trace);
    if json then print_endline (Hector_json.to_string (Serve.metrics_json server))
    else begin
      let s = Serve.load_stats server in
      Printf.printf "served %d / %d requests (%d shed) in %d batches (mean size %.2f)\n"
        s.Serve.lserved s.Serve.requests s.Serve.lshed s.Serve.lbatches s.Serve.mean_batch;
      Printf.printf "throughput: %.1f req/s (simulated)\n" s.Serve.throughput_rps;
      Printf.printf "latency: p50 %.3f  p95 %.3f  p99 %.3f  mean %.3f sim-ms (queue %.3f)\n"
        s.Serve.p50_ms s.Serve.p95_ms s.Serve.p99_ms s.Serve.mean_latency_ms
        s.Serve.mean_queue_ms;
      Printf.printf "kernel launches per served request: %.2f\n" s.Serve.launches_per_request;
      Printf.printf "batch sizes:";
      List.iter (fun (sz, n) -> Printf.printf "  %dx%d" n sz) s.Serve.batch_histogram;
      print_newline ();
      match Serve.faults server with
      | Some plan ->
          Printf.printf "faults: %d batch failures, %d requests shed after retry\n"
            (Serve.batch_failures server) (Serve.fault_shed server);
          List.iter (fun e -> Printf.printf "  %s\n" e) (Fault.trace plan)
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve batched inference requests over a dataset replica (simulated clock).")
    Term.(const run $ model_arg $ dataset_arg $ max_edges_arg $ rate_arg $ requests_arg
          $ seeds_arg $ batch_arg $ queue_arg $ wait_arg $ fanout_arg $ hops_arg $ seed_arg
          $ json_arg $ fault_rate_arg $ fault_seed_arg $ db_arg $ no_fuse_arg)

let cmd_stream =
  let module Delta = Hector_stream.Delta in
  let module Mg = Hector_stream.Mutable_graph in
  let module Ss = Hector_stream.Stream_serve in
  let rate_arg =
    Arg.(value & opt float 500.0
         & info [ "rate" ] ~docv:"RPS" ~doc:"Open-loop arrival rate, requests per second.")
  in
  let requests_arg =
    Arg.(value & opt int 64 & info [ "requests" ] ~docv:"N" ~doc:"Number of requests to replay.")
  in
  let deltas_arg =
    Arg.(value & opt int 8
         & info [ "deltas" ] ~docv:"D"
             ~doc:"Graph deltas interleaved with the trace, at evenly spaced micro-batch \
                   boundaries.")
  in
  let ops_arg =
    Arg.(value & opt int 20
         & info [ "delta-ops" ] ~docv:"K" ~doc:"Operations per delta (mixed read/write traffic).")
  in
  let slack_arg =
    Arg.(value & opt (some float) None
         & info [ "slack" ] ~docv:"S"
             ~doc:"Capacity headroom per node/edge type (default 0.5).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload and delta seed.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print only the JSON stream report.")
  in
  let run model dataset max_edges rate requests deltas delta_ops slack seed json no_fuse =
    if not (rate > 0.0) then (
      Printf.eprintf "hector stream: --rate must be positive\n";
      exit 2);
    if requests <= 0 then (
      Printf.eprintf "hector stream: --requests must be positive\n";
      exit 2);
    if deltas < 0 || delta_ops < 0 then (
      Printf.eprintf "hector stream: --deltas and --delta-ops must be non-negative\n";
      exit 2);
    (match slack with
    | Some s when not (s >= 0.0) ->
        Printf.eprintf "hector stream: --slack must be non-negative\n";
        exit 2
    | _ -> ());
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    let program = Hector_models.Model_defs.by_name model () in
    let in_dim =
      List.find_map
        (function Hector_core.Inter_ir.Node_input { dim; _ } -> Some dim | _ -> None)
        program.Hector_core.Inter_ir.decls
      |> Option.value ~default:64
    in
    let features =
      Hector_tensor.Tensor.randn (Hector_tensor.Rng.create seed)
        [| graph.G.num_nodes; in_dim |]
    in
    let mg, server, trace =
      or_usage_error "stream" (fun () ->
          let mg = Mg.create ~name:dataset ?slack ~graph ~features () in
          let config =
            { Serve.default_config with Serve.model; options = serve_options ~no_fuse }
          in
          ( mg,
            Ss.create ~config ~mg program,
            Workload.generate
              ~spec:{ Workload.seed; rate_rps = rate; requests; seeds_per_request = 4 }
              ~num_nodes:graph.G.num_nodes () ))
    in
    (* serve the trace in D+1 segments; each boundary generates one delta
       against the CURRENT live view and applies it before the next
       segment — the mixed read/write loop of DESIGN.md *)
    let boundaries = deltas + 1 in
    for k = 0 to deltas do
      let lo = k * requests / boundaries in
      let hi = (k + 1) * requests / boundaries in
      if hi > lo then ignore (Ss.serve server (Array.sub trace lo (hi - lo)));
      if k < deltas then begin
        let d =
          Delta.generate ~view:(Mg.view mg) ~seed:((seed * 131) + k) ~ops:delta_ops ()
        in
        match Ss.apply server d with
        | Ok _ -> ()
        | Error msg -> Printf.eprintf "hector stream: delta %d rejected: %s\n" k msg
      end
    done;
    if json then print_endline (Hector_json.to_string (Ss.metrics_json server))
    else begin
      let c = Mg.counters mg in
      let replica = Ss.replica server in
      let s = Serve.load_stats replica in
      let compiles =
        match Ss.recompiles server with
        | 1 -> "1 compile (warm-up)"
        | n -> Printf.sprintf "%d compiles (1 warm-up)" n
      in
      Printf.printf "applied %d deltas (%d ops): %d epoch bumps, %d re-warms, %s\n" c.Mg.deltas
        c.Mg.ops c.Mg.epochs (Ss.rewarms server) compiles;
      Printf.printf "CSR: %d rows patched incrementally, %d full rebuilds, %d compactions\n"
        c.Mg.patched_rows c.Mg.rebuilds c.Mg.compacted;
      Printf.printf "graph now: %d nodes, %d edges (epoch %d, version %d)\n"
        (Mg.live_nodes mg) (Mg.live_edges mg) (Mg.epoch mg) (Mg.version mg);
      Printf.printf "update cost: %.3f sim-ms (%.4f ms/delta)\n" (Ss.update_ms server)
        (if c.Mg.deltas = 0 then 0.0 else Ss.update_ms server /. float_of_int c.Mg.deltas);
      Printf.printf "served %d requests (%d shed, %d rejected); latency p50 %.3f p99 %.3f sim-ms\n"
        (Ss.served server) (Ss.shed server) (Ss.rejected server) s.Serve.p50_ms s.Serve.p99_ms
    end
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Serve live traffic over a mutating dataset replica: interleave generated graph \
          deltas (node/edge churn + feature updates) with an open-loop request trace.  \
          In-slack deltas recompile and reallocate nothing (--slack headroom); \
          overflowing a capacity epoch re-warms the replica with pinned weights.")
    Term.(const run $ model_arg $ dataset_arg $ max_edges_arg $ rate_arg $ requests_arg
          $ deltas_arg $ ops_arg $ slack_arg $ seed_arg $ json_arg $ no_fuse_arg)

let cmd_partition =
  let parts_arg =
    Arg.(value & opt int 2
         & info [ "parts" ] ~docv:"P" ~doc:"Number of partitions (default 2).")
  in
  let slack_arg =
    Arg.(value & opt float 0.0
         & info [ "slack" ] ~docv:"S"
             ~doc:"Balance slack: a partition may grow to (1+S)*n/P nodes for a smaller cut.")
  in
  let run dataset max_edges parts slack =
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    let pt =
      or_usage_error "partition" (fun () -> Hector_graph.Partition.partition ~slack ~parts graph)
    in
    Format.printf "%a@." Hector_graph.Partition.pp_summary pt
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Partition a dataset replica for distributed execution and report the cut. \
          Distributed training (Hector_dist.Replica) partitions with the even split \
          (no --slack) and overlaps communication with compute: async transfers on 2 \
          channels per replica, 64 KiB gradient buckets.")
    Term.(const run $ dataset_arg $ max_edges_arg $ parts_arg $ slack_arg)

let cmd_autotune =
  let module Autotune = Hector_runtime.Autotune in
  let module Tuning_db = Hector_runtime.Tuning_db in
  let run model dataset training max_edges db_path =
    let graph = Ds.load ~max_edges (Ds.find dataset) in
    let program = Hector_models.Model_defs.by_name model () in
    let db = Option.map Tuning_db.load db_path in
    let result = Autotune.search ~training ?db ~model_name:model ~graph program in
    let best_id = Compiler.options_id result.Autotune.best.Autotune.options in
    Printf.printf "candidate space: %d configurations, ranked by estimated cost\n\n"
      (List.length result.Autotune.ranked);
    Printf.printf "  %-28s %12s %12s\n" "configuration" "est ms" "measured ms";
    (* the entries ranked ahead of the winner ran out of device memory *)
    ignore
      (List.fold_left
         (fun ahead (c : Autotune.candidate) ->
           let id = Compiler.options_id c.Autotune.options in
           let is_best = String.equal id best_id in
           Printf.printf "  %-28s %12.4f %12s\n" id c.Autotune.estimated_ms
             (if is_best then Printf.sprintf "%.4f" result.Autotune.measured_ms
              else if ahead then "OOM"
              else "-");
           ahead && not is_best)
         true result.Autotune.ranked);
    Printf.printf "\nbest: %s\n" (Autotune.describe result);
    match (db, db_path) with
    | Some db, Some path ->
        Tuning_db.save db path;
        Printf.printf "recorded winner in %s (%d entries)\n" path (Tuning_db.size db)
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:"Rank every layout, optimization and schedule configuration of a model+dataset \
             by its estimated cost, run the best-ranked one that fits in device memory \
             once, and optionally persist the winner in a tuning database.")
    Term.(const run $ model_arg $ dataset_arg $ training_arg $ max_edges_arg $ db_arg)

let cmd_checkpoint =
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Checkpoint directory (required unless --inspect is given).")
  in
  let steps_arg =
    Arg.(value & opt int 6 & info [ "steps" ] ~docv:"N" ~doc:"Total training steps.")
  in
  let every_arg =
    Arg.(value & opt int 2
         & info [ "every" ] ~docv:"K" ~doc:"Save a checkpoint every K steps (0 = only at the end).")
  in
  let keep_arg =
    Arg.(value & opt (some int) None
         & info [ "keep" ] ~docv:"N"
             ~doc:"Retain only the N newest checkpoints (default: keep all).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Continue from the latest checkpoint in the directory instead of starting \
                   fresh (replays onto the uninterrupted run's exact trajectory).")
  in
  let inspect_arg =
    Arg.(value & opt (some string) None
         & info [ "inspect" ] ~docv:"FILE"
             ~doc:"Print a checkpoint file's header (model, step, tensors) and exit.")
  in
  let lr_arg =
    Arg.(value & opt float 0.05 & info [ "lr" ] ~docv:"LR" ~doc:"Learning rate.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print only a JSON report.")
  in
  let run model dataset max_edges dir steps every keep resume inspect lr json no_fuse =
    match inspect with
    | Some path -> (
        match Checkpoint.load path with
        | ck ->
            if json then print_endline (String.sub (Checkpoint.encode ck) 0
              (String.index (Checkpoint.encode ck) '\n'))
            else begin
              Printf.printf "model: %s\nstep: %d\nepoch: %d\ngraph version: %d\n"
                (Checkpoint.model ck) (Checkpoint.step ck) (Checkpoint.epoch ck)
                (Checkpoint.graph_version ck);
              (match Checkpoint.rng ck with
              | Some c -> Printf.printf "rng cursor: %Ld\n" c
              | None -> ());
              List.iter (fun (k, v) -> Printf.printf "meta %s: %s\n" k v) (Checkpoint.meta ck);
              let params = ref 0 in
              List.iter
                (fun (name, w) ->
                  let shape = Hector_tensor.Tensor.shape w in
                  params := !params + Hector_tensor.Tensor.numel w;
                  Printf.printf "tensor %-24s [%s]\n" name
                    (String.concat "x" (Array.to_list (Array.map string_of_int shape))))
                (Checkpoint.tensors ck);
              Printf.printf "parameters: %d\n" !params
            end
        | exception Checkpoint.Corrupt msg ->
            Printf.eprintf "hector checkpoint: %s\n" msg;
            exit 1)
    | None ->
        if steps <= 0 then (
          Printf.eprintf "hector checkpoint: --steps must be positive\n";
          exit 2);
        if every < 0 then (
          Printf.eprintf "hector checkpoint: --every must be non-negative\n";
          exit 2);
        (match keep with
        | Some k when k < 1 ->
            Printf.eprintf "hector checkpoint: --keep must be >= 1\n";
            exit 2
        | _ -> ());
        let dir =
          match dir with
          | Some d -> d
          | None ->
              Printf.eprintf "hector checkpoint: --dir is required (or --inspect FILE)\n";
              exit 2
        in
        let graph = Ds.load ~max_edges (Ds.find dataset) in
        let compiled =
          compile_model model ~training:true ~compact:false ~fusion:false ~no_fuse
        in
        let labels =
          Array.init graph.G.num_nodes (fun v -> (graph.G.node_type.(v) + v) mod 4)
        in
        let r =
          if resume then Trainer.resume ~dir ?keep ~every ~lr ~model ~graph ~labels ~steps compiled
          else Trainer.fit ~dir ?keep ~every ~lr ~model ~graph ~labels ~steps compiled
        in
        if json then
          print_endline
            (Hector_json.(
               to_string
                 (Obj
                    [
                      ("model", Str model);
                      ("dataset", Str dataset);
                      ("start_step", int r.Trainer.start_step);
                      ("steps", int steps);
                      ("losses", Arr (Array.to_list (Array.map (fun l -> Num l) r.Trainer.losses)));
                      ("checkpoints", int (List.length r.Trainer.checkpoints));
                    ])))
        else begin
          if r.Trainer.start_step > 0 then
            Printf.printf "resumed from step %d\n" r.Trainer.start_step;
          Array.iteri
            (fun i l -> Printf.printf "step %d  loss %.4f\n" (r.Trainer.start_step + i + 1) l)
            r.Trainer.losses;
          List.iter (fun p -> Printf.printf "saved %s\n" p) r.Trainer.checkpoints;
          match Checkpoint.latest ~dir with
          | Some p -> Printf.printf "latest: %s\n" p
          | None -> ()
        end
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Checkpointed training over a dataset replica: fit with a save cadence, \
             --resume from the latest checkpoint (bitwise-identical trajectory), or \
             --inspect a checkpoint file.  Checkpoints go to --dir, pruned to the --keep \
             newest.")
    Term.(const run $ model_arg $ dataset_arg $ max_edges_arg $ dir_arg $ steps_arg
          $ every_arg $ keep_arg $ resume_arg $ inspect_arg $ lr_arg $ json_arg $ no_fuse_arg)

let () =
  let info = Cmd.info "hector" ~version:"1.0" ~doc:"Hector RGNN compiler (GPU-simulated)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cmd_compile; cmd_run; cmd_serve; cmd_stream; cmd_partition; cmd_checkpoint;
            cmd_datasets; cmd_baselines; cmd_autotune ]))
