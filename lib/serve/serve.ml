module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Csr = Hector_graph.Csr
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Mat = Hector_core.Materialization
module Session = Hector_runtime.Session
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env
module Knobs = Hector_runtime.Knobs
module Tuning_db = Hector_runtime.Tuning_db
module Graph_ctx = Hector_runtime.Graph_ctx
module Fault = Hector_ckpt.Fault

type config = {
  model : string;
  fanout : int;
  hops : int;
  max_batch : int option;
  max_wait_ms : float;
  queue_capacity : int option;
  options : Compiler.options option;
  autotune : bool;
  tune_db : string option;
  device : Device.t;
  seed : int;
  weights : (string * Tensor.t) list;
  epoch : int;
  faults : Fault.t option;
}

let default_config =
  {
    model = "rgcn";
    fanout = 8;
    hops = 2;
    max_batch = None;
    max_wait_ms = 20.0;
    queue_capacity = None;
    options = None;
    autotune = false;
    tune_db = None;
    device = Device.rtx3090;
    seed = 1;
    weights = [];
    epoch = 0;
    faults = None;
  }

type response = {
  request : Workload.request;
  output : Tensor.t option;
  batch_size : int;
  queue_ms : float;
  sample_ms : float;
  transfer_ms : float;
  compute_ms : float;
  latency_ms : float;
}

type t = {
  mutable graph : G.t;  (* current snapshot; swapped by [update_graph] *)
  mutable in_csr : Csr.t;  (* Csr.incoming of [graph], cached across batches *)
  node_capacity : int;  (* warmup graph sizes: staging/slab upper bounds *)
  edge_capacity : int;
  compiled : Compiler.compiled;
  cache : Plan_cache.t;
  engine : Engine.t;
  slab : Exec.slab;
  obs : Hector_obs.t;
  weights : (string * Tensor.t) list;
  features : Tensor.t;  (* parent node features, host-resident *)
  feature_name : string;
  node_stage : Tensor.t;  (* parent-capacity staging for gathered features *)
  edge_stage : (string * Tensor.t) list;  (* per edge input, parent capacity *)
  out_name : string;  (* the program's first output, gathered per request *)
  fanout : int;
  hops : int;
  max_batch : int;
  max_wait_ms : float;
  queue_capacity : int;
  warm_alloc_count : int;
  (* load accounting, accumulated across [serve] calls *)
  mutable requests_seen : int;
  mutable served : int;
  mutable shed : int;
  mutable rejected : int;  (* invalid seeds (e.g. tombstoned nodes), never enqueued *)
  mutable batches : int;
  faults : Fault.t option;  (* engine-failure injection; [None] = pre-fault path *)
  mutable batch_failures : int;  (* micro-batches that failed mid-execution *)
  mutable fault_shed : int;  (* requests shed after their retry also failed (⊆ shed) *)
  mutable latencies : float list;  (* served requests only *)
  mutable queue_waits : float list;
  batch_hist : (int, int) Hashtbl.t;
  mutable sim_ms : float;  (* accumulated episode span (first arrival → last finish) *)
}

(* Deterministic host-side sampling cost (simulated ms): proportional to the
   block actually built, with a fixed per-call floor.  Kept out of the
   engine because sampling runs on the host, concurrently with nothing. *)
let sample_cost_ms ~nodes ~edges =
  0.01 +. (2e-4 *. float_of_int nodes) +. (5e-5 *. float_of_int edges)

let exact_fanout graph = Array.fold_left max 1 (G.in_degrees graph)

let resolve label v knob ~default =
  let r =
    match v with
    | Some v -> v
    | None -> ( match knob with Some k -> k | None -> default)
  in
  if r < 1 then invalid_arg (Printf.sprintf "Serve.create: %s must be >= 1" label);
  r

let create ?(config = default_config) ?obs ?features ~graph program =
  if config.fanout < 1 || config.hops < 1 then
    invalid_arg "Serve.create: fanout and hops must be positive";
  if config.max_wait_ms < 0.0 then invalid_arg "Serve.create: negative max_wait_ms";
  let knobs = Knobs.current () in
  let max_batch = resolve "max_batch" config.max_batch knobs.Knobs.serve_batch ~default:8 in
  let queue_capacity =
    resolve "queue_capacity" config.queue_capacity knobs.Knobs.serve_queue ~default:64
  in
  let obs =
    match obs with
    | Some o -> o
    | None -> if knobs.Knobs.obs then Hector_obs.create () else Hector_obs.disabled
  in
  (* the request path supports one node input (the features we gather per
     block) and the conventional precomputed "norm" edge input, recomputed
     per block exactly as Session generates it for a whole graph *)
  let feature_name, node_dim =
    match
      List.filter_map
        (function Ir.Node_input { name; dim } -> Some (name, dim) | _ -> None)
        program.Ir.decls
    with
    | [ input ] -> input
    | _ -> invalid_arg "Serve.create: model must declare exactly one node input"
  in
  (match features with
  | Some f when Tensor.shape f <> [| graph.G.num_nodes; node_dim |] ->
      invalid_arg
        (Printf.sprintf "Serve.create: features must be %d x %d (num_nodes x %s dim), got %s"
           graph.G.num_nodes node_dim feature_name
           (String.concat " x " (Array.to_list (Array.map string_of_int (Tensor.shape f)))))
  | _ -> ());
  let out_name =
    match program.Ir.outputs with
    | o :: _ -> o
    | [] -> invalid_arg "Serve.create: model declares no outputs"
  in
  let edge_input_names =
    List.filter_map
      (function
        | Ir.Edge_input { name; dim; _ } ->
            if String.equal name "norm" && dim = 1 then Some name
            else
              invalid_arg
                (Printf.sprintf "Serve.create: unsupported edge input %S (only norm)" name)
        | _ -> None)
      program.Ir.decls
  in
  let cache = Plan_cache.create ~obs () in
  (* admission-time options ladder: explicit config > tuning-DB hit (exact,
     then nearest signature bucket) > a warmup search when [autotune] is
     set (recorded back into the DB) > fixed defaults.  A DB hit admits
     with zero candidate compiles and zero searches. *)
  let db_path =
    match config.tune_db with Some p -> Some p | None -> knobs.Knobs.tune_db
  in
  let options =
    match config.options with
    | Some o -> { o with Compiler.training = false }
    | None ->
        if config.autotune || db_path <> None then begin
          let db = Option.map Tuning_db.load db_path in
          let searches_before = Hector_runtime.Autotune.search_count () in
          let o =
            Plan_cache.tuned_options ~device:config.device ?db ~model_name:config.model
              ~allow_search:config.autotune ~graph program
          in
          (match (db, db_path) with
          | Some db, Some path
            when Hector_runtime.Autotune.search_count () > searches_before ->
              Tuning_db.save db path
          | _ -> ());
          o
        end
        else Compiler.default_options
  in
  let compiled =
    Plan_cache.get cache ~model:config.model ~graph:graph.G.name ~options program
  in
  (* one persistent engine for the replica; blocks run at physical size
     (scale 1), like minibatch training *)
  let engine = Engine.create ~device:config.device ~scale:1.0 ~obs () in
  let slab = Exec.create_slab ~epoch:config.epoch () in
  (* warmup: a session over the PARENT graph charges weights and features
     once and primes the slab at parent capacity — an upper bound on every
     sampled block, so steady-state blocks never outgrow the backings.  It
     runs no forward: the primed arena already holds every plan buffer.
     The session's norm is never read (blocks recompute theirs), so it
     warms with zeros. *)
  let scfg =
    {
      Session.Config.default with
      Session.Config.engine = Some engine;
      slab = Some slab;
      seed = config.seed;
      (* explicit weights (e.g. pinned across capacity epochs by the
         streaming subsystem) override the seeded Glorot initialization *)
      weights = config.weights;
      node_inputs = (match features with Some f -> [ (feature_name, f) ] | None -> []);
      edge_inputs =
        List.map (fun name -> (name, Tensor.zeros [| graph.G.num_edges; 1 |])) edge_input_names;
    }
  in
  let session = Session.create ~config:scfg ~graph compiled in
  let exec0 = Session.exec session in
  Exec.warm_plan exec0 compiled.Compiler.forward;
  let features = (Env.find exec0.Exec.env feature_name).Env.tensor in
  ignore
    (Engine.alloc_tensor engine ~label:"serve/node_stage" ~rows:graph.G.num_nodes
       ~cols:node_dim ());
  let node_stage = Tensor.create_uninit [| graph.G.num_nodes * node_dim |] in
  let edge_stage =
    List.map
      (fun name ->
        ignore
          (Engine.alloc_tensor engine
             ~label:("serve/edge_stage_" ^ name)
             ~rows:graph.G.num_edges ~cols:1 ());
        (name, Tensor.create_uninit [| graph.G.num_edges |]))
      edge_input_names
  in
  (* warmup cost is not part of the serving clock *)
  Engine.reset_clock engine;
  {
    graph;
    in_csr = Csr.incoming graph;
    node_capacity = graph.G.num_nodes;
    edge_capacity = graph.G.num_edges;
    compiled;
    cache;
    engine;
    slab;
    obs;
    weights = Session.weights session;
    features;
    feature_name;
    node_stage;
    edge_stage;
    out_name;
    fanout = config.fanout;
    hops = config.hops;
    max_batch;
    max_wait_ms = config.max_wait_ms;
    queue_capacity;
    warm_alloc_count = Memory.alloc_count (Engine.memory engine);
    requests_seen = 0;
    served = 0;
    shed = 0;
    rejected = 0;
    batches = 0;
    faults = (match config.faults with Some _ -> config.faults | None -> Fault.of_knobs ());
    batch_failures = 0;
    fault_shed = 0;
    latencies = [];
    queue_waits = [];
    batch_hist = Hashtbl.create 8;
    sim_ms = 0.0;
  }

(* Swap the served graph for a new snapshot of the same mutable parent —
   the streaming subsystem's in-slack path.  Within the warm capacity this
   recompiles nothing and reallocates nothing: the plan-cache key, slab
   backings, staging tensors and the parent-features storage all survive;
   only the feature VALUES are overwritten in place and the cached incoming
   CSR replaced (with the caller's incrementally patched one when given).
   A snapshot beyond the warm capacity is refused — that is the epoch
   boundary, where the caller re-warms a fresh replica instead. *)
let update_graph t ~(graph : G.t) ?features ?csr () =
  if
    G.num_ntypes graph <> G.num_ntypes t.graph
    || G.num_etypes graph <> G.num_etypes t.graph
  then Error "Serve.update_graph: metagraph shape mismatch"
  else if graph.G.num_nodes > t.node_capacity then
    Error
      (Printf.sprintf
         "Serve.update_graph: %d nodes exceed warm capacity %d (epoch rebuild required)"
         graph.G.num_nodes t.node_capacity)
  else if graph.G.num_edges > t.edge_capacity then
    Error
      (Printf.sprintf
         "Serve.update_graph: %d edges exceed warm capacity %d (epoch rebuild required)"
         graph.G.num_edges t.edge_capacity)
  else begin
    match features with
    | Some f
      when Tensor.cols f <> Tensor.cols t.features || Tensor.rows f <> graph.G.num_nodes
      ->
        Error "Serve.update_graph: features must be num_nodes x feature_dim"
    | _ ->
        (match features with
        | Some f ->
            let src, so = Tensor.storage f and dst, d0 = Tensor.storage t.features in
            Array.blit src so dst d0 (Tensor.numel f)
        | None -> ());
        t.graph <- graph;
        t.in_csr <- (match csr with Some c -> c | None -> Csr.incoming graph);
        Hector_obs.add t.obs "serve.graph_updates" 1;
        Ok ()
  end

let model_weights t = t.weights

(* Execute one coalesced batch: union-sample a block, stage inputs into
   parent-capacity views, charge the PCIe transfer, run the cached forward
   plan through a block-local executor sharing the replica's engine and
   slab, and gather each request's seed rows out of the output. *)
let run_batch t (batch : Workload.request array) =
  Hector_obs.time t.obs ~kind:"run" "serve.batch" @@ fun () ->
  let seed_sets = Array.map (fun r -> r.Workload.seeds) batch in
  let sub, block_seed_sets =
    Sampler.sample_union
      ~seed:((batch.(0).Workload.id * 31) + 17)
      ~csr:t.in_csr ~graph:t.graph ~seed_sets ~fanout:t.fanout ~hops:t.hops ()
  in
  let block = sub.Sampler.graph in
  let sample_ms =
    sample_cost_ms ~nodes:block.G.num_nodes ~edges:block.G.num_edges
  in
  let env = Env.create () in
  List.iter (fun (name, w) -> Env.add_weight env ~name w) t.weights;
  (* gather the block's features into the staging prefix, one row blit
     per block node *)
  let rows = Array.length sub.Sampler.origin_node in
  let dim = Tensor.cols t.features in
  let feats = Tensor.view t.node_stage [| rows; dim |] in
  let src, s0 = Tensor.storage t.features and dst, d0 = Tensor.storage feats in
  Array.iteri
    (fun i parent -> Array.blit src (s0 + (parent * dim)) dst (d0 + (i * dim)) dim)
    sub.Sampler.origin_node;
  Env.add env ~name:t.feature_name
    { Env.tensor = feats; space = Mat.Rows_nodes; dim; alloc = None };
  let edge_bytes = ref 0 in
  List.iter
    (fun (name, stage) ->
      let v = Tensor.view stage [| block.G.num_edges; 1 |] in
      let data, off = Tensor.storage v in
      Session.rgcn_norm_into block data off;
      edge_bytes := !edge_bytes + (block.G.num_edges * 4);
      Env.add env ~name { Env.tensor = v; space = Mat.Rows_edges; dim = 1; alloc = None })
    t.edge_stage;
  (* host→device transfer of the staged inputs over PCIe *)
  let t0 = Engine.elapsed_ms t.engine in
  let bytes = float_of_int ((rows * dim * 4) + !edge_bytes) in
  Engine.launch t.engine
    (Kernel.make ~name:"h2d_block" ~category:Kernel.Copy ~graph_proportional:false
       ~grid_blocks:(max 1 (rows * dim / 1024))
       ~bytes_coalesced:bytes
       ~provenance:(Kernel.provenance ~origin:"serve.transfer" "h2d_block")
       ());
  Engine.host_sync t.engine
    ~us:(bytes /. (Engine.device t.engine).Device.pcie_bandwidth_gbs /. 1e9 *. 1e6)
    ();
  let transfer_ms = Engine.elapsed_ms t.engine -. t0 in
  let exec =
    Exec.create ~engine:t.engine ~ctx:(Graph_ctx.create block) ~env ~slab:t.slab ()
  in
  Exec.run_plan exec t.compiled.Compiler.forward;
  let compute_ms = Engine.elapsed_ms t.engine -. t0 -. transfer_ms in
  let out = (Env.find env t.out_name).Env.tensor in
  let per_request = Array.map (fun ids -> Tensor.gather_rows out ids) block_seed_sets in
  (per_request, sample_ms, transfer_ms, compute_ms)

let shed_response r =
  {
    request = r;
    output = None;
    batch_size = 0;
    queue_ms = 0.0;
    sample_ms = 0.0;
    transfer_ms = 0.0;
    compute_ms = 0.0;
    latency_ms = 0.0;
  }

(* Discrete-event serving loop over one arrival trace (an independent
   episode: the simulated admission clock restarts at zero, while plan
   cache, slab and load accounting persist across calls).  The batch
   former dispatches when the server is free and either [max_batch]
   requests are queued or the oldest has waited [max_wait_ms] (or no
   arrival can improve the batch).  Arrivals seen while the queue holds
   [queue_capacity] requests are shed. *)
let serve t (requests : Workload.request array) =
  let n = Array.length requests in
  Array.iteri
    (fun i r ->
      if i > 0 && r.Workload.arrival_ms < requests.(i - 1).Workload.arrival_ms then
        invalid_arg "Serve.serve: requests must be sorted by arrival time")
    requests;
  t.requests_seen <- t.requests_seen + n;
  Hector_obs.add t.obs "serve.requests" n;
  let responses = Array.map (fun r -> shed_response r) requests in
  (* seeds are validated against the CURRENT snapshot at admission: under a
     mutating graph a client can hold ids a delta has since removed, and a
     stale request must be rejected (output [None]), not crash the loop *)
  let valid =
    Array.map
      (fun r ->
        Array.length r.Workload.seeds > 0
        && Array.for_all
             (fun s -> s >= 0 && s < t.graph.G.num_nodes)
             r.Workload.seeds)
      requests
  in
  let reject _idx =
    t.rejected <- t.rejected + 1;
    Hector_obs.add t.obs "serve.rejected" 1
    (* the response stays a shed record: no output *)
  in
  let queue : (int * Workload.request) Queue.t = Queue.create () in
  (* per-request retry flags, allocated only under fault injection: a
     request whose batch fails is retried once, then shed (witnessed) *)
  let retried = match t.faults with None -> [||] | Some _ -> Array.make n false in
  let next = ref 0 in
  let server_free = ref 0.0 in
  let last_finish = ref 0.0 in
  while !next < n || not (Queue.is_empty queue) do
    if Queue.is_empty queue then begin
      (* idle: jump the clock to the next arrival (capacity >= 1) *)
      let idx = !next in
      incr next;
      if valid.(idx) then Queue.add (idx, requests.(idx)) queue else reject idx
    end
    else begin
      let _, oldest = Queue.peek queue in
      let deadline = oldest.Workload.arrival_ms +. t.max_wait_ms in
      let missing = t.max_batch - Queue.length queue in
      let fill_at =
        if missing <= 0 then neg_infinity (* already full: go as soon as free *)
        else if !next + missing <= n then requests.(!next + missing - 1).Workload.arrival_ms
        else if !next < n then requests.(n - 1).Workload.arrival_ms
          (* can never fill: the last arrival is the last useful wait *)
        else oldest.Workload.arrival_ms (* drain: nothing left to wait for *)
      in
      let dispatch_at = Float.max !server_free (Float.min deadline fill_at) in
      (* admission: arrivals up to the dispatch instant enter the bounded
         queue; the rest of the trace stays pending for later rounds *)
      while !next < n && requests.(!next).Workload.arrival_ms <= dispatch_at do
        let idx = !next in
        incr next;
        if not valid.(idx) then reject idx
        else if Queue.length queue >= t.queue_capacity then begin
          t.shed <- t.shed + 1;
          Hector_obs.add t.obs "serve.shed" 1
          (* responses.(idx) is already a shed record *)
        end
        else Queue.add (idx, requests.(idx)) queue
      done;
      let bsize = min t.max_batch (Queue.length queue) in
      let members = Array.init bsize (fun _ -> Queue.pop queue) in
      let batch = Array.map snd members in
      let batch_id = t.batches in
      let outs, sample_ms, transfer_ms, compute_ms = run_batch t batch in
      let finish = dispatch_at +. sample_ms +. transfer_ms +. compute_ms in
      server_free := finish;
      last_finish := Float.max !last_finish finish;
      t.batches <- t.batches + 1;
      Hector_obs.add t.obs "serve.batches" 1;
      Hashtbl.replace t.batch_hist bsize
        (1 + Option.value (Hashtbl.find_opt t.batch_hist bsize) ~default:0);
      let failed =
        match t.faults with
        | None -> false
        | Some plan -> Fault.fail_batch plan ~batch:batch_id
      in
      if failed then begin
        (* engine failure mid-batch: the full batch cost was charged, the
           outputs are lost.  Each member is retried once at the head of
           the queue; a member whose retry also failed is shed — counted,
           recorded, never silently dropped. *)
        let plan = Option.get t.faults in
        t.batch_failures <- t.batch_failures + 1;
        Hector_obs.add t.obs "serve.batch_failures" 1;
        Fault.record plan (Fault.Batch_failed { batch = batch_id });
        let requeue = Queue.create () in
        Array.iter
          (fun (idx, r) ->
            if retried.(idx) then begin
              t.shed <- t.shed + 1;
              t.fault_shed <- t.fault_shed + 1;
              Hector_obs.add t.obs "serve.shed" 1;
              Hector_obs.add t.obs "serve.fault_shed" 1;
              Fault.record plan (Fault.Request_shed { request = r.Workload.id })
              (* responses.(idx) is already a shed record *)
            end
            else begin
              retried.(idx) <- true;
              Hector_obs.add t.obs "serve.fault_retries" 1;
              Fault.record plan (Fault.Request_retried { request = r.Workload.id });
              Queue.add (idx, r) requeue
            end)
          members;
        (* retried members go to the head so their wait stays bounded *)
        Queue.transfer queue requeue;
        Queue.transfer requeue queue
      end
      else
        Array.iteri
          (fun k (idx, r) ->
            let queue_ms = dispatch_at -. r.Workload.arrival_ms in
            let latency_ms = finish -. r.Workload.arrival_ms in
            t.served <- t.served + 1;
            Hector_obs.add t.obs "serve.served" 1;
            t.latencies <- latency_ms :: t.latencies;
            t.queue_waits <- queue_ms :: t.queue_waits;
            responses.(idx) <-
              {
                request = r;
                output = Some outs.(k);
                batch_size = bsize;
                queue_ms;
                sample_ms;
                transfer_ms;
                compute_ms;
                latency_ms;
              })
          members
    end
  done;
  t.sim_ms <- t.sim_ms +. !last_finish;
  responses

(* --- metrics ---------------------------------------------------------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(min (n - 1) (max 0 rank))

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let launches t = (Stats.total (Engine.stats t.engine)).Stats.launches

type load_stats = {
  requests : int;
  lserved : int;
  lshed : int;
  lbatches : int;
  mean_batch : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_latency_ms : float;
  mean_queue_ms : float;
  launches_per_request : float;
  batch_histogram : (int * int) list;  (* batch size, count; ascending *)
}

let load_stats t =
  let lat = Array.of_list t.latencies in
  Array.sort compare lat;
  {
    requests = t.requests_seen;
    lserved = t.served;
    lshed = t.shed;
    lbatches = t.batches;
    mean_batch =
      (if t.batches > 0 then float_of_int t.served /. float_of_int t.batches else 0.0);
    throughput_rps =
      (if t.sim_ms > 0.0 then float_of_int t.served /. (t.sim_ms /. 1000.0) else 0.0);
    p50_ms = percentile lat 0.50;
    p95_ms = percentile lat 0.95;
    p99_ms = percentile lat 0.99;
    mean_latency_ms = mean t.latencies;
    mean_queue_ms = mean t.queue_waits;
    launches_per_request =
      (if t.served > 0 then float_of_int (launches t) /. float_of_int t.served else 0.0);
    batch_histogram =
      Hashtbl.fold (fun size count acc -> (size, count) :: acc) t.batch_hist []
      |> List.sort compare;
  }

let metrics_json t =
  let module M = Hector_obs.Metrics in
  let s = load_stats t in
  let st = Engine.stats t.engine in
  M.envelope ~subsystem:"serve" ~elapsed_ms:t.sim_ms ~launches:(launches t)
    Hector_json.
      [
        ( "comm",
          M.comm ~posted_ms:(Engine.posted_comm_ms t.engine)
            ~exposed_ms:(Stats.of_category st Kernel.Comm).Stats.time_ms );
        ("requests", int s.requests);
        ("served", int s.lserved);
        ("shed", int s.lshed);
        ("rejected", int t.rejected);
        ("batches", int s.lbatches);
        ("batch_failures", int t.batch_failures);
        ("fault_shed", int t.fault_shed);
        ("mean_batch", Num s.mean_batch);
        ("throughput_rps", Num s.throughput_rps);
        ( "latency_ms",
          Obj
            [
              ("p50", Num s.p50_ms);
              ("p95", Num s.p95_ms);
              ("p99", Num s.p99_ms);
              ("mean", Num s.mean_latency_ms);
            ] );
        ("queue_ms", Obj [ ("mean", Num s.mean_queue_ms) ]);
        ( "batch_hist",
          Obj (List.map (fun (size, count) -> (string_of_int size, int count)) s.batch_histogram)
        );
        ( "plan_cache",
          Obj
            [
              ("hits", int (Plan_cache.hits t.cache)); ("misses", int (Plan_cache.misses t.cache));
            ] );
        ("launches_per_request", Num s.launches_per_request);
        ("alloc_count", int (Memory.alloc_count (Engine.memory t.engine)));
        ("sim_elapsed_ms", Num t.sim_ms);
      ]

let engine t = t.engine
let plan_cache t = t.cache
let obs t = t.obs
let served t = t.served
let shed t = t.shed
let rejected t = t.rejected
let batch_failures t = t.batch_failures
let fault_shed t = t.fault_shed
let faults t = t.faults
let graph t = t.graph
let slab t = t.slab
let slab_epoch t = Exec.slab_epoch t.slab
let node_capacity t = t.node_capacity
let edge_capacity t = t.edge_capacity
let batches t = t.batches
let warm_alloc_count t = t.warm_alloc_count
let max_batch t = t.max_batch
let queue_capacity t = t.queue_capacity
