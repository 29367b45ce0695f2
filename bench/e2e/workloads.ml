(* The four workloads (README.md says why each was chosen).

   Each follows one method: [cfg.setups] cold set-ups (graph generation,
   compilation, session/server/cluster creation, one warm-up op) give
   [setup_s]; the last one runs the timed window; then the outputs are
   checked against an independent oracle.  A traced run adds a second
   set-up with an enabled observability handle, a traced window of the
   same length, and the per-layer metrics.

   Ops follow a fixed per-seed schedule that repeats in cycles.  Every
   simulated-clock metric and every count is read over the first cycle,
   which always runs to completion, so those metrics are identical for one
   seed whatever the host speed. *)

open Harness
module Rng = Hector_tensor.Rng
module Datasets = Hector_graph.Datasets
module Hetgraph = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Sampler = Hector_graph.Sampler
module Partition = Hector_graph.Partition
module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Linear_fusion = Hector_core.Linear_fusion
module Model_defs = Hector_models.Model_defs
module Reference = Hector_models.Reference
module Session = Hector_runtime.Session
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env
module Train = Hector_runtime.Train
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Plan_cache = Hector_serve.Plan_cache
module Mg = Hector_stream.Mutable_graph
module Delta = Hector_stream.Delta
module Ss = Hector_stream.Stream_serve
module Replica = Hector_dist.Replica

type t = { name : string; run : cfg -> outcome -> unit }

let in_dim = 64
let classes = 16
let load ~seed obs name = span obs "graph.generate" (fun () -> Datasets.load ~seed (Datasets.find name))
let plan_steps (c : Compiler.compiled) =
  List.length c.Compiler.forward.Plan.steps
  + Option.fold ~none:0 ~some:(fun (p : Plan.t) -> List.length p.Plan.steps) c.Compiler.backward

(* Set-up-phase metrics of a traced set-up, before its spans are dropped. *)
let set_setup_spans o obs =
  let spans = Obs.spans obs in
  set_compile o spans;
  set o "graph.generate_ms" (sum_spans spans (named "graph.generate"));
  Obs.reset obs

(* One host-time series per graph draw of a workload. *)
let draw_series n = List.init n (fun g -> (Printf.sprintf "/draw%d" g, series ()))

(* Host-time groups (see [Harness.host_of]) of one series each. *)
let singles labelled = List.map (fun (label, s) -> (label, [ s ])) labelled

let op_spans obs names =
  List.filter (fun (s : Obs.span) -> List.exists (fun n -> named n s) names) (Obs.spans obs)

(* --- train_full -------------------------------------------------------- *)

module Train_full = struct
  type sess = {
    tag : string;
    model : string;
    graph : Hetgraph.t;
    compiled : Compiler.compiled;
    session : Session.t;
    labels : int array;
  }

  (* (model, compact, fusion): RGCN U, RGAT C+F, HGT U *)
  let models = [ ("rgcn", false, false, "U"); ("rgat", true, true, "C+F"); ("hgt", false, false, "U") ]

  let session ~obs ~seed ~dataset graph (model, compact, fusion, tag) =
    let compiled =
      Compiler.compile ~obs
        ~options:(Compiler.options_of_flags ~training:true ~compact ~fusion ())
        (Model_defs.by_name model ~in_dim ~out_dim:classes ())
    in
    let config =
      { Session.Config.default with Session.Config.seed; observability = Some obs }
    in
    let session =
      span obs "runtime.session_create" (fun () -> Session.create ~config ~graph compiled)
    in
    let exec = Session.exec session in
    span obs "exec.warm" (fun () ->
        Exec.warm_plan ~free_temps:false exec compiled.Compiler.forward;
        Option.iter (Exec.warm_plan exec) compiled.Compiler.backward);
    let labels = labels ~seed graph.Hetgraph.num_nodes in
    ignore (span obs "runtime.train_step" (fun () -> Session.train_step session ~labels ()));
    { tag = Printf.sprintf "%s/%s-%s" dataset model tag; model; graph; compiled; session; labels }

  let setup ~seed obs =
    List.concat_map
      (fun dataset ->
        let graph = load ~seed obs dataset in
        List.map (session ~obs ~seed ~dataset graph) models)
      [ "am"; "fb15k" ]
    |> Array.of_list

  let engines ss = Array.to_list (Array.map (fun s -> Session.engine s.session) ss)

  let fused_names (c : Compiler.compiled) =
    List.map
      (function Linear_fusion.Mat_vec { out; _ } | Linear_fusion.Mat_mat { out; _ } -> out)
      c.Compiler.weight_ops

  let step_kind = function
    | Plan.Weight_op _ -> "weight_op"
    | Plan.Gemm _ -> "gemm"
    | Plan.Traversal _ -> "traversal"
    | Plan.Fallback _ -> "fallback"
    | Plan.Fused _ -> "fused"

  (* [on_step] stamps: wall time since the previous stamp, by step kind. *)
  let stamps kinds (plan : Plan.t) =
    let ks = Array.of_list (List.map step_kind plan.Plan.steps) in
    let last = ref (now ()) in
    fun i ->
      let t = now () in
      let acc = Hashtbl.find kinds ks.(i) in
      acc := !acc +. ((t -. !last) *. 1e3);
      last := t

  (* [Session.train_step] taken apart into its public pieces, each in a
     span: forward, loss, seed-gradient binding, backward, fused-weight
     gradient chaining, teardown of kept forward temporaries, SGD. *)
  let traced_step obs kinds s =
    let c = s.compiled and exec = Session.exec s.session and engine = Session.engine s.session in
    let fwd = c.Compiler.forward and bwd = Option.get c.Compiler.backward in
    let out_name = List.hd fwd.Plan.program.Hector_core.Inter_ir.outputs in
    span obs "runtime.train_step" (fun () ->
        span obs "exec.forward" (fun () ->
            Exec.run_plan ~on_step:(stamps kinds fwd) ~free_temps:false exec fwd);
        let out = (Env.find exec.Exec.env out_name).Env.tensor in
        let loss, dout =
          span obs "runtime.loss" (fun () -> Train.nll_loss ~engine ~out ~labels:s.labels)
        in
        span obs "runtime.seed" (fun () ->
            let seed_name = Hector_core.Autodiff.grad_name out_name in
            match Env.find_opt exec.Exec.env seed_name with
            | Some entry ->
                Tensor.fill entry.Env.tensor 0.0;
                Tensor.add_inplace entry.Env.tensor dout
            | None ->
                let alloc =
                  Engine.alloc_tensor engine ~label:seed_name ~rows:(Tensor.rows dout)
                    ~cols:(Tensor.cols dout) ()
                in
                Env.add exec.Exec.env ~name:seed_name
                  {
                    Env.tensor = dout;
                    space = Hector_core.Materialization.Rows_nodes;
                    dim = Tensor.cols dout;
                    alloc = Some alloc;
                  });
        span obs "exec.backward" (fun () -> Exec.run_plan ~on_step:(stamps kinds bwd) exec bwd);
        span obs "runtime.backprop_weight_ops" (fun () ->
            Train.backprop_weight_ops ~exec c.Compiler.weight_ops);
        span obs "exec.teardown" (fun () -> Exec.free_temp_buffers exec fwd);
        span obs "runtime.sgd" (fun () ->
            Train.sgd_step ~skip:(fused_names c) ~exec ~lr:0.01 ());
        loss)

  let check_reference o ss =
    Array.iter
      (fun s ->
        let env = (Session.exec s.session).Exec.env in
        let inputs =
          List.filter_map
            (fun name -> Option.map (fun (e : Env.entry) -> (name, e.Env.tensor)) (Env.find_opt env name))
            [ "h"; "norm" ]
        in
        let got = snd (List.hd (Session.forward s.session)) in
        let want =
          Reference.by_name s.model ~graph:s.graph ~inputs ~weights:(Session.weights s.session)
        in
        check_close o ~what:s.tag got want)
      ss

  let run cfg o =
    let seed = cfg.seed in
    let ss, setup_wall = timed_setups cfg o (setup ~seed) in
    let n = Array.length ss in
    let walls = Array.init n (fun _ -> series ()) in
    let sims = Array.make n 0.0 in
    let d0 = dev (engines ss) and h0 = host () in
    let d1 = ref d0 and h1 = ref h0 in
    let w =
      window ~seconds:cfg.seconds ~min_ops:n (fun k ->
          let s = ss.(k mod n) in
          let e = Session.engine s.session in
          let sim0 = Engine.elapsed_ms e in
          let t0 = now () in
          let loss = Session.train_step s.session ~labels:s.labels () in
          add walls.(k mod n) k ((now () -. t0) *. 1e3);
          if k < n then sims.(k) <- Engine.elapsed_ms e -. sim0;
          if k = n - 1 then begin
            h1 := host ();
            d1 := dev (engines ss);
            set o "host_live_mb" (live_mb ss)
          end;
          if not (Float.is_finite loss) then fail o (s.tag ^ ": non-finite loss"))
    in
    set_host_per_op o ~ops:n h0 !h1;
    o.attempted <- o.attempted + w.ops;
    set_host o w ~setup_wall
      (singles (Array.to_list (Array.mapi (fun i s -> ("/" ^ s.tag, walls.(i))) ss)));
    let host_ms = value o "host_ms_per_op" in
    let sim = Sample.gmean (Array.to_list sims) in
    set o "sim_ms_per_op" sim;
    set o "p50_sim_ms" (Sample.quantile sims 0.5);
    set o "p99_sim_ms" (Sample.quantile sims 0.99);
    set o "gpu_peak_mb" (peak_mb (engines ss));
    set_dev_per_op o ~ops:n (dev_sub !d1 d0);
    set o "exec.host_sim_ratio" (host_ms /. sim);
    check_reference o ss;
    if cfg.traced then begin
      let obs = Obs.create () in
      let ts = setup ~seed obs in
      let setup_spans = Obs.spans obs in
      set o "exec.warm_ms" (sum_spans setup_spans (named "exec.warm"));
      set_setup_spans o obs;
      set o "core.plan_steps"
        (float_of_int (Array.fold_left (fun acc s -> acc + plan_steps s.compiled) 0 ts));
      (* twins: untraced sessions in the same state, stepped with
         [Session.train_step] to pin the traced decomposition bit for bit *)
      let twins =
        Array.map
          (fun s ->
            let config = { Session.Config.default with Session.Config.seed } in
            let twin = Session.create ~config ~graph:s.graph s.compiled in
            ignore (Session.train_step twin ~labels:s.labels ());
            twin)
          ts
      in
      let kinds = Hashtbl.create 8 in
      List.iter (fun k -> Hashtbl.replace kinds k (ref 0.0)) [ "gemm"; "traversal"; "fused"; "weight_op"; "fallback" ];
      Obs.reset obs;
      let twalls = Array.init n (fun i -> (string_of_int i, series ())) in
      let total = ref 0.0 in
      let tw =
        window ~seconds:cfg.seconds ~min_ops:n (fun k ->
            let s = ts.(k mod n) in
            let t0 = now () in
            let loss = traced_step obs kinds s in
            let dt = (now () -. t0) *. 1e3 in
            add (snd twalls.(k mod n)) k dt;
            total := !total +. dt;
            if k < 2 * n then begin
              let want = Session.train_step twins.(k mod n) ~labels:s.labels () in
              check o
                (Int64.equal (Int64.bits_of_float loss) (Int64.bits_of_float want))
                (Printf.sprintf "%s: traced loss %.17g <> train_step %.17g" s.tag loss want)
            end)
      in
      let tops = tw.ops in
      let spans = op_spans obs [ "runtime.train_step" ] in
      set_layers o ~ops:tops ~wall_ms:!total spans;
      let per name = sum_spans spans (named name) /. float_of_int tops in
      set o "runtime.loss_ms" (per "runtime.loss");
      set o "runtime.sgd_ms" (per "runtime.sgd");
      set o "exec.teardown_ms" (per "exec.teardown");
      Hashtbl.iter (fun k acc -> set o ("exec.step_ms." ^ k) (!acc /. float_of_int tops)) kinds;
      set o "obs.trace_overhead_frac" ((host_of tw (singles (Array.to_list twalls)) /. host_ms) -. 1.0);
      keep_trace o obs;
      csr_incoming_ms o ts.(0).graph;
      gemm_probe o ~seed
    end
end

(* --- serve_open -------------------------------------------------------- *)

(* The serving workloads run several seeded draws of the AM replica side by
   side: the degree structure of one draw moves per-request host time by
   +-10% (README.md, "Method"), so a run averages [draws] of them, and a
   seed still fixes every input. *)

module Serve_open = struct
  let draws = 16
  let chunk = 100
  let cycle = 5 (* chunks per draw: 8,000 requests a cycle, 80 beyond p99 *)
  let rate = 30_000.0

  let config ~seed =
    {
      Serve.default_config with
      Serve.model = "rgat";
      fanout = 8;
      hops = 2;
      max_batch = Some 8;
      max_wait_ms = 5.0;
      queue_capacity = Some 256;
      options = Some Compiler.default_options;
      seed;
    }

  let program () = Model_defs.rgat ~in_dim ~out_dim:classes ()

  let trace ~seed ~rate ~requests (graph : Hetgraph.t) =
    Workload.generate
      ~spec:{ Workload.seed; rate_rps = rate; requests; seeds_per_request = 4 }
      ~num_nodes:graph.Hetgraph.num_nodes ()

  type replica = {
    gseed : int;
    graph : Hetgraph.t;
    server : Serve.t;
    chunks : Workload.request array array;
  }

  let replica ~obs ~seed g =
    let gseed = (seed * draws) + g in
    let graph = load ~seed:gseed obs "am" in
    let server =
      span obs "serve.create" (fun () ->
          Serve.create ~config:(config ~seed:gseed) ~obs ~graph (program ()))
    in
    let chunks =
      Array.init cycle (fun c -> trace ~seed:((gseed * 1000) + c) ~rate ~requests:chunk graph)
    in
    ignore (span obs "serve.warm_up" (fun () -> Serve.serve server chunks.(0)));
    { gseed; graph; server; chunks }

  let setup ~seed obs = Array.init draws (replica ~obs ~seed)

  (* Op [k]: chunk [k / draws] of draw [k mod draws]. *)
  let serve_op ?(obs = Obs.disabled) st k =
    let r = st.(k mod draws) in
    span obs "serve.serve" (fun () -> Serve.serve r.server r.chunks.(k / draws mod cycle))

  let engines st = Array.to_list (Array.map (fun r -> Serve.engine r.server) st)

  (* Sim-clock ledger of served responses: latency, queue wait and the
     per-request share of its batch's sampling + transfer + compute. *)
  type ledger = { lat : Sample.buf; queue : Sample.buf; mutable service : float }

  let ledger () = { lat = Sample.buf (); queue = Sample.buf (); service = 0.0 }

  let note_response led (r : Serve.response) =
    Sample.push led.lat r.Serve.latency_ms;
    Sample.push led.queue r.Serve.queue_ms;
    led.service <-
      led.service
      +. ((r.Serve.sample_ms +. r.Serve.transfer_ms +. r.Serve.compute_ms)
         /. float_of_int r.Serve.batch_size)

  let set_ledger o led =
    let lat = Sample.contents led.lat in
    let n = float_of_int (Array.length lat) in
    set o "sim_ms_per_op" (led.service /. n);
    set o "p50_sim_ms" (Sample.quantile lat 0.5);
    set o "p99_sim_ms" (Sample.quantile lat 0.99);
    set o "serve.queue_sim_ms" (Array.fold_left ( +. ) 0.0 (Sample.contents led.queue) /. n)

  (* Requests without an output were shed or rejected: both count as
     failed ops. *)
  let tally o rs ~first =
    Array.iter
      (fun (r : Serve.response) ->
        match (r.Serve.output, first) with
        | None, _ -> fail o (Printf.sprintf "request %d shed or rejected" r.Serve.request.Workload.id)
        | Some _, Some led -> note_response led r
        | Some _, None -> ())
      rs

  (* Highest offered rate (to 2%) at which a 1,000-request trace is served
     with zero shed, p99 <= 10 sim-ms and throughput >= 0.95 x the trace's
     realized arrival rate (a Poisson trace this short runs several percent
     off its nominal rate). *)
  let max_rps r =
    let meets rps =
      let rs = Serve.serve r.server (trace ~seed:((r.gseed * 1000) + 999) ~rate:rps ~requests:1000 r.graph) in
      let arrival (x : Serve.response) = x.Serve.request.Workload.arrival_ms in
      let n = Array.length rs in
      let first = arrival rs.(0) in
      let last_finish =
        Array.fold_left (fun acc (x : Serve.response) -> Float.max acc (arrival x +. x.Serve.latency_ms)) 0.0 rs
      in
      let per_s span_ms = float_of_int n /. (span_ms /. 1000.0) in
      Array.for_all (fun (x : Serve.response) -> x.Serve.output <> None) rs
      && Sample.quantile (Array.map (fun (x : Serve.response) -> x.Serve.latency_ms) rs) 0.99 <= 10.0
      && per_s (last_finish -. first) >= 0.95 *. per_s (arrival rs.(n - 1) -. first)
    in
    (* bracket from the workload's own rate, then bisect geometrically *)
    let lo = ref rate and hi = ref (2.0 *. rate) in
    while !lo > 1.0 && not (meets !lo) do
      hi := !lo;
      lo := !lo /. 2.0
    done;
    while meets !hi do
      lo := !hi;
      hi := !hi *. 2.0
    done;
    while !hi /. !lo > 1.02 do
      let mid = sqrt (!lo *. !hi) in
      if meets mid then lo := mid else hi := mid
    done;
    !lo

  (* The oracle: a replica that keeps every in-edge (so a sampled block is
     the full receptive field), fed pinned features, against the reference
     RGAT over the whole parent graph with the replica's own weights. *)
  let check_exact o r =
    let graph = r.graph in
    let server =
      Serve.create
        ~config:{ (config ~seed:r.gseed) with Serve.fanout = Serve.exact_fanout graph }
        ~obs:Obs.disabled ~graph (program ())
    in
    let feats = Tensor.randn (Rng.create (r.gseed + 202)) [| graph.Hetgraph.num_nodes; in_dim |] in
    (match Serve.update_graph server ~graph ~features:feats () with
    | Ok () -> ()
    | Error e -> fail o e);
    let want =
      Reference.by_name "rgat" ~graph ~inputs:[ ("h", feats) ] ~weights:(Serve.model_weights server)
    in
    Array.iter
      (fun (x : Serve.response) ->
        match x.Serve.output with
        | None -> check o false "oracle request shed"
        | Some got ->
            check_close o
              ~what:(Printf.sprintf "serve request %d" x.Serve.request.Workload.id)
              got (Tensor.gather_rows want x.Serve.request.Workload.seeds))
      (Serve.serve server (trace ~seed:((r.gseed * 1000) + 777) ~rate ~requests:32 graph))

  (* Recover each served batch (members are consecutive in trace order and
     share one dispatch instant, arrival + queue wait) and replay its
     union sample outside the timed window. *)
  let replay_sampling o r (rs : Serve.response array) =
    let csr = Csr.incoming r.graph in
    let served = List.filter (fun (x : Serve.response) -> x.Serve.output <> None) (Array.to_list rs) in
    let dispatch (x : Serve.response) =
      Float.round ((x.Serve.request.Workload.arrival_ms +. x.Serve.queue_ms) *. 1e9)
    in
    let rec split n d = function
      | x :: rest when n > 0 && dispatch x = d ->
          let g, rest = split (n - 1) d rest in
          (x :: g, rest)
      | l -> ([], l)
    in
    let rec groups acc = function
      | [] -> List.rev acc
      | (x : Serve.response) :: _ as l ->
          let g, rest = split x.Serve.batch_size (dispatch x) l in
          groups (g :: acc) rest
    in
    let times = Sample.buf () and nodes = ref 0 and edges = ref 0 in
    let batches = groups [] served in
    List.iter
      (fun (g : Serve.response list) ->
        let first = List.hd g in
        let seed_sets =
          Array.of_list (List.map (fun (x : Serve.response) -> x.Serve.request.Workload.seeds) g)
        in
        let t0 = now () in
        let sub, _ =
          Sampler.sample_union
            ~seed:((first.Serve.request.Workload.id * 31) + 17)
            ~csr ~graph:r.graph ~seed_sets ~fanout:8 ~hops:2 ()
        in
        Sample.push times ((now () -. t0) *. 1e3);
        nodes := !nodes + sub.Sampler.graph.Hetgraph.num_nodes;
        edges := !edges + sub.Sampler.graph.Hetgraph.num_edges)
      batches;
    let nb = float_of_int (List.length batches) in
    set o "graph.sample_union_ms" (Sample.median (Sample.contents times));
    set o "graph.block_nodes" (float_of_int !nodes /. nb);
    set o "graph.block_edges" (float_of_int !edges /. nb)

  let run cfg o =
    let seed = cfg.seed in
    let st, setup_wall = timed_setups cfg o (setup ~seed) in
    let first = draws * cycle in
    let walls = draw_series draws and led = ledger () in
    let batches () = Array.fold_left (fun acc r -> acc + Serve.batches r.server) 0 st in
    let d0 = dev (engines st) and h0 = host () and b0 = batches () in
    let d1 = ref d0 and h1 = ref h0 and b1 = ref b0 in
    let w =
      window ~seconds:cfg.seconds ~min_ops:first (fun k ->
          let t0 = now () in
          let rs = serve_op st k in
          add (snd (List.nth walls (k mod draws))) k ((now () -. t0) *. 1e3 /. float_of_int chunk);
          tally o rs ~first:(if k < first then Some led else None);
          if k = first - 1 then begin
            h1 := host ();
            d1 := dev (engines st);
            b1 := batches ();
            set o "host_live_mb" (live_mb st)
          end)
    in
    set_host_per_op o ~ops:(first * chunk) h0 !h1;
    o.attempted <- o.attempted + (w.ops * chunk);
    set_host o w ~setup_wall (singles walls);
    let host_ms = value o "host_ms_per_op" in
    set_ledger o led;
    set o "serve.mean_batch" (float_of_int (first * chunk) /. float_of_int (!b1 - b0));
    set o "gpu_peak_mb" (peak_mb (engines st));
    set_dev_per_op o ~ops:(first * chunk) (dev_sub !d1 d0);
    set o "exec.host_sim_ratio" (host_ms /. value o "sim_ms_per_op");
    check_exact o st.(0);
    if cfg.traced then begin
      let obs = Obs.create () in
      let ts = setup ~seed obs in
      set_setup_spans o obs;
      set o "core.plan_steps"
        (float_of_int (plan_steps (Compiler.compile ~options:Compiler.default_options (program ()))));
      let misses () = Array.fold_left (fun acc r -> acc + Plan_cache.misses (Serve.plan_cache r.server)) 0 ts in
      let misses0 = misses () in
      let twalls = draw_series draws and firsts = ref [] in
      let tw =
        window ~seconds:cfg.seconds ~min_ops:first (fun k ->
            let t0 = now () in
            let rs = serve_op ~obs ts k in
            add (snd (List.nth twalls (k mod draws))) k ((now () -. t0) *. 1e3 /. float_of_int chunk);
            if k < first && k mod draws = 0 then firsts := rs :: !firsts;
            if k = first - 1 then set o "serve.plan_cache_misses" (float_of_int (misses () - misses0)))
      in
      let treq = tw.ops * chunk in
      let spans = op_spans obs [ "serve.serve" ] in
      let twall_total =
        List.fold_left (fun acc (_, s) -> acc +. Array.fold_left ( +. ) 0.0 (raw s)) 0.0 twalls
        *. float_of_int chunk
      in
      set_layers o ~ops:treq ~wall_ms:twall_total spans;
      let nb = ref 0 and batch_ms = ref 0.0 and batch_self = ref 0.0 in
      iter_spans
        (fun s ->
          if named "serve.batch" s then begin
            incr nb;
            batch_ms := !batch_ms +. s.Obs.duration_ms;
            batch_self := !batch_self +. self_ms s
          end)
        spans;
      set o "serve.batch_ms" (!batch_ms /. float_of_int !nb);
      set o "serve.batch_self_ms" (!batch_self /. float_of_int !nb);
      set o "serve.loop_self_us_per_request"
        (List.fold_left (fun acc s -> acc +. self_ms s) 0.0 spans *. 1e3 /. float_of_int treq);
      set o "obs.trace_overhead_frac" ((host_of tw (singles twalls) /. host_ms) -. 1.0);
      keep_trace o obs;
      replay_sampling o ts.(0) (Array.concat (List.rev !firsts));
      csr_incoming_ms o ts.(0).graph;
      gemm_probe o ~seed
    end
    else set o "max_rps_sim" (max_rps st.(0))
end

(* --- stream_rw --------------------------------------------------------- *)

module Stream_rw = struct
  let draws = 8
  let chunk = 50
  let delta_ops = 50
  let rounds = 10 (* per episode: 500 requests and 10 deltas; 4,000 over the lanes *)
  let rate = 1500.0

  (* edge and feature churn, balanced so live edge counts hover *)
  let edge_mix =
    { Delta.add_node = 0.0; remove_node = 0.0; add_edge = 0.35; remove_edge = 0.35; set_feat = 0.3 }

  let config ~seed = { (Serve_open.config ~seed) with Serve.model = "rgcn" }

  type episode = { mg : Mg.t; ss : Ss.t; twin : Mg.t option; mutable sent : int }

  (* One graph draw and the episode currently replaying over it. *)
  type lane = { gseed : int; graph : Hetgraph.t; features : Tensor.t; mutable ep : episode }

  let requests ~gseed mg r =
    Workload.generate
      ~spec:{ Workload.seed = (gseed * 1009) + r; rate_rps = rate; requests = chunk; seeds_per_request = 4 }
      ~num_nodes:(Mg.live_nodes mg) ()

  let delta ~gseed mg r =
    Delta.generate
      ~mix:(if r mod 4 = 3 then Delta.default_mix else edge_mix)
      ~view:(Mg.view mg) ~seed:((gseed * 7919) + r) ~ops:delta_ops ()

  (* A fresh mutable graph and serving subsystem over a base graph, plus
     one warm-up op (a chunk of round 0, which leaves the graph alone).
     Every episode replays the same rounds from this state. *)
  let episode ~obs ~twin ~gseed graph features =
    let mg () = Mg.create ~name:"am" ~slack:0.25 ~graph ~features () in
    let m = span obs "stream.mg_create" mg in
    let ss =
      span obs "stream.create" (fun () ->
          Ss.create ~config:(config ~seed:gseed) ~obs ~mg:m (Model_defs.rgcn ~in_dim ~out_dim:classes ()))
    in
    ignore (span obs "stream.warm_up" (fun () -> Ss.serve ss (requests ~gseed m 0)));
    { mg = m; ss; twin = (if twin then Some (mg ()) else None); sent = chunk }

  let setup ?(twin = false) ~seed obs =
    Array.init draws (fun g ->
        let gseed = (seed * draws) + g in
        let graph = load ~seed:gseed obs "am" in
        let features = Tensor.randn (Rng.create (gseed + 303)) [| graph.Hetgraph.num_nodes; in_dim |] in
        { gseed; graph; features; ep = episode ~obs ~twin ~gseed graph features })

  let check_accounting o ep =
    check o
      (Ss.served ep.ss + Ss.shed ep.ss + Ss.rejected ep.ss = ep.sent)
      (Printf.sprintf "stream accounting: %d served + %d shed + %d rejected <> %d sent"
         (Ss.served ep.ss) (Ss.shed ep.ss) (Ss.rejected ep.ss) ep.sent)

  (* Op [k]: round [(k / draws) mod rounds] of draw [k mod draws] — a chunk
     of requests, then one delta at the batch boundary.  A lane starts a
     fresh episode (outside the timed calls, after checking the finished
     one) every [rounds] of its rounds.  [serve]/[apply] wrap the two
     public calls (spans in a traced run). *)
  let round o ~obs ~serve ~apply st k ~on_round =
    let lane = st.(k mod draws) in
    let j = k / draws in
    let r = j mod rounds in
    if j > 0 && r = 0 then begin
      check_accounting o lane.ep;
      lane.ep <- episode ~obs ~twin:(lane.ep.twin <> None) ~gseed:lane.gseed lane.graph lane.features
    end;
    let ep = lane.ep in
    let reqs = requests ~gseed:lane.gseed ep.mg r and d = delta ~gseed:lane.gseed ep.mg r in
    let t0 = now () in
    let rs = serve (fun () -> Ss.serve ep.ss reqs) in
    let t1 = now () in
    let res = apply (fun () -> Ss.apply ep.ss d) in
    let t2 = now () in
    ep.sent <- ep.sent + chunk;
    on_round ~k ~lane:(k mod draws) ~r ~first:(j < rounds) ~ep ~rs ~res ~d
      ~serve_ms:((t1 -. t0) *. 1e3) ~apply_ms:((t2 -. t1) *. 1e3)

  (* Host time per request of an episode, by lane: every episode replays
     the same rounds, so each round of a lane is a series of its own, and
     a lane's op is the sum of its rounds' medians over the episode's
     requests — re-warms included, in proportion. *)
  let round_series () = Array.init draws (fun _ -> Array.init rounds (fun _ -> series ()))

  let add_round walls ~k ~lane ~r ms = add walls.(lane).(r) k (ms /. float_of_int (rounds * chunk))

  let by_lane walls =
    Array.to_list (Array.mapi (fun g a -> (Printf.sprintf "/draw%d" g, Array.to_list a)) walls)

  let run cfg o =
    let seed = cfg.seed in
    let st, setup_wall = timed_setups cfg o (setup ~seed) in
    let first = draws * rounds in
    let walls = round_series () and ingest = series () and rewarm = series () in
    let led = Serve_open.ledger () in
    let d = ref dev_zero and peaks = Array.make draws 0.0 and h0 = host () in
    let h1 = ref h0 in
    (* counters of each lane's first episode *)
    let firsts = Array.map (fun lane -> lane.ep) st in
    let on_round ~k ~lane ~r ~first ~ep ~rs ~res ~d:_ ~serve_ms ~apply_ms =
      add_round walls ~k ~lane ~r (serve_ms +. apply_ms);
      (match res with
      | Ok (s : Mg.apply_stats) -> add (if s.Mg.epoch_changed then rewarm else ingest) k apply_ms
      | Error e -> fail o ("delta rejected: " ^ e));
      Serve_open.tally o rs ~first:(if first then Some led else None);
      if first then peaks.(lane) <- Float.max peaks.(lane) (peak_mb [ Serve.engine (Ss.replica ep.ss) ])
    in
    let ident f = f () in
    let w =
      window ~seconds:cfg.seconds ~min_ops:first (fun k ->
          let lane = st.(k mod draws) in
          round o ~obs:Obs.disabled
            ~serve:(fun f ->
              let eng = Serve.engine (Ss.replica lane.ep.ss) in
              let before = dev [ eng ] in
              let rs = f () in
              if k < first then d := dev_add !d (dev_sub (dev [ eng ]) before);
              rs)
            ~apply:ident st k ~on_round;
          if k = first - 1 then begin
            h1 := host ();
            set o "host_live_mb" (live_mb st)
          end)
    in
    set_host_per_op o ~ops:(first * chunk) h0 !h1;
    o.attempted <- o.attempted + (w.ops * chunk) + w.ops;
    set_host o w ~setup_wall (by_lane walls);
    let host_ms = value o "host_ms_per_op" in
    List.iter
      (fun (name, s) ->
        record o name (at_ref w s);
        if s.items <> [] then set o name (host_median w s))
      [ ("ingest_ms", ingest); ("rewarm_ms", rewarm) ];
    Serve_open.set_ledger o led;
    set o "gpu_peak_mb" (Array.fold_left ( +. ) 0.0 peaks /. float_of_int draws);
    set_dev_per_op o ~ops:(first * chunk) !d;
    set o "exec.host_sim_ratio" (host_ms /. value o "sim_ms_per_op");
    let sum f = Array.fold_left (fun acc ep -> acc + f (Mg.counters ep.mg)) 0 firsts in
    let deltas = float_of_int (sum (fun c -> c.Mg.deltas)) in
    let per_delta f = float_of_int (sum f) /. deltas in
    set o "stream.patched_rows_per_delta" (per_delta (fun c -> c.Mg.patched_rows));
    set o "stream.csr_rebuilds_per_kdelta" (1000.0 *. per_delta (fun c -> c.Mg.rebuilds));
    set o "stream.compactions_per_delta" (per_delta (fun c -> c.Mg.compacted));
    set o "stream.epoch_bumps_per_kdelta" (1000.0 *. per_delta (fun c -> c.Mg.epochs));
    set o "stream.recompiles"
      (float_of_int (Array.fold_left (fun acc ep -> acc + Ss.recompiles ep.ss) 0 firsts));
    set o "stream.update_sim_ms_per_kop"
      (Array.fold_left (fun acc ep -> acc +. Ss.update_ms ep.ss) 0.0 firsts
      *. 1000.0
      /. float_of_int (sum (fun c -> c.Mg.ops)));
    Array.iter (fun lane -> check_accounting o lane.ep) st;
    (match Ss.check_equivalence st.(0).ep.ss (requests ~gseed:st.(0).gseed st.(0).ep.mg 999) with
    | Ok _ -> check o true ""
    | Error e -> check o false ("stream equivalence: " ^ e));
    if cfg.traced then begin
      let obs = Obs.create () in
      let ts = setup ~twin:true ~seed obs in
      set_setup_spans o obs;
      set o "core.plan_steps"
        (float_of_int
           (plan_steps
              (Compiler.compile ~options:Compiler.default_options
                 (Model_defs.rgcn ~in_dim ~out_dim:classes ()))));
      let twalls = round_series () and total = ref 0.0 and mg_apply = Sample.buf () in
      let on_round ~k ~lane ~r ~first:_ ~ep ~rs:_ ~res:_ ~d ~serve_ms ~apply_ms =
        add_round twalls ~k ~lane ~r (serve_ms +. apply_ms);
        total := !total +. serve_ms +. apply_ms;
        Option.iter
          (fun twin ->
            let t0 = now () in
            ignore (Mg.apply twin d);
            Sample.push mg_apply ((now () -. t0) *. 1e3))
          ep.twin
      in
      let tw =
        window ~seconds:cfg.seconds ~min_ops:(draws * rounds) (fun k ->
            round o ~obs ~serve:(span obs "stream.serve") ~apply:(span obs "stream.apply") ts k ~on_round)
      in
      let spans = op_spans obs [ "stream.serve"; "stream.apply" ] in
      set_layers o ~ops:(tw.ops * chunk) ~wall_ms:!total spans;
      set o "stream.mg_apply_ms" (Sample.median (Sample.contents mg_apply));
      set o "obs.trace_overhead_frac" ((host_of tw (by_lane twalls) /. host_ms) -. 1.0);
      keep_trace o obs;
      csr_incoming_ms o ts.(0).graph;
      gemm_probe o ~seed
    end
end

(* --- dist_p4 ----------------------------------------------------------- *)

module Dist_p4 = struct
  let parts = 4
  let draws = 2

  type cl = {
    model : string;
    graph : Hetgraph.t;
    features : Tensor.t;
    labels : int array;
    compiled : Compiler.compiled;
    cluster : Replica.t;
  }

  (* Per graph draw, an RGCN and an RGAT cluster over the same partition. *)
  let setup ~seed obs =
    Array.concat
      (List.init draws (fun g ->
           let gseed = (seed * draws) + g in
           let graph = load ~seed:gseed obs "am" in
           let features =
             Tensor.randn (Rng.create (gseed + 404)) [| graph.Hetgraph.num_nodes; in_dim |]
           in
           let labels = labels ~seed:gseed graph.Hetgraph.num_nodes in
           Array.map
             (fun model ->
               let compiled =
                 Compiler.compile ~obs
                   ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
                   (Model_defs.by_name model ~in_dim ~out_dim:classes ())
               in
               let config =
                 { Replica.Config.default with Replica.Config.parts = Some parts; seed = gseed; obs = Some obs }
               in
               let cluster =
                 span obs "dist.create" (fun () -> Replica.create ~config ~features ~graph [ compiled ])
               in
               ignore (span obs "dist.train_step" (fun () -> Replica.train_step cluster ~labels ()));
               { model; graph; features; labels; compiled; cluster })
             [| "rgcn"; "rgat" |]))

  let engines st = List.concat_map (fun c -> Array.to_list (Replica.engines c.cluster)) (Array.to_list st)

  let check_reference o st =
    Array.iter
      (fun c ->
        let got = Replica.forward c.cluster in
        let want =
          Reference.by_name c.model ~graph:c.graph
            ~inputs:[ ("h", c.features); ("norm", Session.rgcn_norm c.graph) ]
            ~weights:(Replica.weights_of c.cluster 0)
        in
        check_close o ~what:("dist " ^ c.model) got want)
      st

  let mean_over st f = Array.fold_left (fun acc c -> acc +. f c) 0.0 st /. float_of_int (Array.length st)

  let run cfg o =
    let seed = cfg.seed in
    let st, setup_wall = timed_setups cfg o (setup ~seed) in
    let n = Array.length st in
    let walls = Array.init n (fun i -> (Printf.sprintf "/%s%d" st.(i).model (i / 2), series ())) in
    let sims = Array.make n 0.0 in
    let comm = ref 0.0 and busy = ref 0.0 and posted = ref 0.0 in
    let d0 = dev (engines st) and h0 = host () in
    let d1 = ref d0 and h1 = ref h0 in
    let w =
      window ~seconds:cfg.seconds ~min_ops:n (fun k ->
          let cl = st.(k mod n) in
          let c = cl.cluster in
          let sim0 = Replica.elapsed_ms c
          and comm0 = Replica.comm_ms c
          and busy0 = Replica.busy_ms c
          and posted0 = Replica.posted_comm_ms c in
          let t0 = now () in
          let loss = Replica.train_step c ~labels:cl.labels () in
          add (snd walls.(k mod n)) k ((now () -. t0) *. 1e3);
          if k < n then begin
            sims.(k) <- Replica.elapsed_ms c -. sim0;
            comm := !comm +. Replica.comm_ms c -. comm0;
            busy := !busy +. Replica.busy_ms c -. busy0;
            posted := !posted +. Replica.posted_comm_ms c -. posted0
          end;
          if k = n - 1 then begin
            h1 := host ();
            d1 := dev (engines st);
            set o "host_live_mb" (live_mb st)
          end;
          if not (Float.is_finite loss) then fail o "dist: non-finite loss")
    in
    set_host_per_op o ~ops:n h0 !h1;
    o.attempted <- o.attempted + w.ops;
    set_host o w ~setup_wall (singles (Array.to_list walls));
    let host_ms = value o "host_ms_per_op" in
    let sim = Sample.gmean (Array.to_list sims) in
    set o "sim_ms_per_op" sim;
    set o "p50_sim_ms" (Sample.quantile sims 0.5);
    set o "p99_sim_ms" (Sample.quantile sims 0.99);
    set o "gpu_peak_mb" (peak_mb (engines st));
    set_dev_per_op o ~ops:n (dev_sub !d1 d0);
    set o "exec.host_sim_ratio" (host_ms /. sim);
    set o "dist.comm_exposed_ratio" (!comm /. !busy);
    set o "dist.posted_comm_ms_per_epoch" (!posted /. float_of_int n);
    set o "dist.edge_cut_frac" (mean_over st (fun c -> Partition.edge_cut_fraction (Replica.partition c.cluster)));
    set o "dist.halo_rows"
      (mean_over st (fun c ->
           float_of_int
             (Array.fold_left
                (fun acc (p : Partition.part) ->
                  Array.fold_left (fun acc (_, pairs) -> acc + Array.length pairs) acc p.Partition.halo)
                0 (Replica.partition c.cluster).Partition.members)));
    check_reference o st;
    if cfg.traced then begin
      let obs = Obs.create () in
      let ts = setup ~seed obs in
      set_setup_spans o obs;
      set o "core.plan_steps" (float_of_int (Array.fold_left (fun acc c -> acc + plan_steps c.compiled) 0 ts));
      let t0 = now () in
      ignore (Sys.opaque_identity (Partition.partition ~parts ts.(0).graph));
      set o "graph.partition_ms" ((now () -. t0) *. 1e3);
      let twalls = Array.map (fun (l, _) -> (l, series ())) walls and total = ref 0.0 in
      let tw =
        window ~seconds:cfg.seconds ~min_ops:n (fun k ->
            let cl = ts.(k mod n) in
            let t0 = now () in
            ignore (span obs "dist.train_step" (fun () -> Replica.train_step cl.cluster ~labels:cl.labels ()));
            let dt = (now () -. t0) *. 1e3 in
            add (snd twalls.(k mod n)) k dt;
            total := !total +. dt)
      in
      let tops = tw.ops in
      let spans = op_spans obs [ "dist.train_step" ] in
      set_layers o ~ops:tops ~wall_ms:!total spans;
      let exec_ms = sum_spans spans (fun s -> starts_with ~prefix:"run_plan:" s.Obs.name) in
      set o "dist.exec_ms_per_epoch" (exec_ms /. float_of_int tops);
      set o "dist.host_overhead_ms_per_epoch" ((!total -. exec_ms) /. float_of_int tops);
      set o "obs.trace_overhead_frac" ((host_of tw (singles (Array.to_list twalls)) /. host_ms) -. 1.0);
      keep_trace o obs;
      csr_incoming_ms o ts.(0).graph;
      gemm_probe o ~seed
    end
end

let all =
  [
    { name = "train_full"; run = Train_full.run };
    { name = "serve_open"; run = Serve_open.run };
    { name = "stream_rw"; run = Stream_rw.run };
    { name = "dist_p4"; run = Dist_p4.run };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
