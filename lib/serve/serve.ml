module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Csr = Hector_graph.Csr
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module Compiler = Hector_core.Compiler
module Ir = Hector_core.Inter_ir
module Plan = Hector_core.Plan
module Exec = Hector_runtime.Exec
module Block = Hector_runtime.Block
module Env = Hector_runtime.Env
module Tuning_db = Hector_runtime.Tuning_db
module Fault = Hector_ckpt.Fault

type config = {
  model : string;
  fanout : int;
  hops : int;
  max_batch : int option;
  max_wait_ms : float;
  queue_capacity : int option;
  options : Compiler.options option;
  tune_db : string option;
  seed : int;
  weights : (string * Tensor.t) list;
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
    tune_db = None;
    seed = 1;
    weights = [];
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
  mutable in_csr : Csr.t Lazy.t;
      (* Csr.incoming of [graph], built at the first batch that samples it
         and cached across batches *)
  mutable node_capacity : int;  (* warmup graph sizes: staging/arena upper bounds *)
  mutable edge_capacity : int;
  compiled : Compiler.compiled;
  mutable compiles : int;  (* [Compiler.compile] calls made inside this replica's own calls *)
  inputs : Block.inputs;  (* out_name: the first output, gathered per request *)
  block : Block.t;  (* engine, executor, weights, features and staging *)
  obs : Hector_obs.t;
  fanout : int;
  hops : int;  (* the configured bound *)
  sampled_hops : int;  (* what each batch samples: the bound, clamped to the program's depth *)
  max_batch : int;
  max_wait_ms : float;
  queue_capacity : int;
  mutable warm_alloc_count : int;
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

let exact_fanout graph = Array.fold_left max 1 (G.in_degrees graph)

let resolve label v ~default =
  let r = Option.value v ~default in
  if r < 1 then invalid_arg (Printf.sprintf "Serve.create: %s must be >= 1" label);
  r

let create ?(config = default_config) ?obs ?features ~graph program =
  if config.fanout < 1 || config.hops < 1 then
    invalid_arg "Serve.create: fanout and hops must be positive";
  if not (config.max_wait_ms >= 0.0) then
    invalid_arg
      (Printf.sprintf "Serve.create: max_wait_ms must be non-negative (got %g)" config.max_wait_ms);
  let max_batch = resolve "max_batch" config.max_batch ~default:8 in
  let queue_capacity = resolve "queue_capacity" config.queue_capacity ~default:64 in
  let compiles0 = Compiler.compiles () in
  let obs = Option.value obs ~default:Hector_obs.disabled in
  let inputs = Block.inputs ~caller:"Serve.create" ?features ~graph program in
  (* admission-time options ladder: explicit config > tuning-DB hit (exact,
     then nearest signature bucket) > fixed defaults.  Admission never
     searches. *)
  let options =
    match (config.options, config.tune_db) with
    | Some o, _ -> { o with Compiler.training = false }
    | None, Some path -> Tuning_db.tuned_options (Tuning_db.load path) ~graph program
    | None, None -> Compiler.default_options
  in
  let compiled = Compiler.compile ~obs ~options program in
  let block =
    Block.create ~obs ~weights:config.weights ?features ~origin:"serve" ~seed:config.seed ~graph
      inputs compiled
  in
  {
    graph;
    in_csr = lazy (Csr.incoming graph);
    node_capacity = graph.G.num_nodes;
    edge_capacity = graph.G.num_edges;
    compiled;
    compiles = Compiler.compiles () - compiles0;
    inputs;
    block;
    obs;
    fanout = config.fanout;
    hops = config.hops;
    sampled_hops =
      (* a hop the forward never reads changes no served bit; 1 is the
         sampler's floor *)
      (match Ir.receptive_depth compiled.Compiler.forward.Plan.program with
      | Some depth -> max 1 (min config.hops depth)
      | None -> config.hops);
    max_batch;
    max_wait_ms = config.max_wait_ms;
    queue_capacity;
    warm_alloc_count = Memory.alloc_count (Engine.memory (Block.engine block));
    requests_seen = 0;
    served = 0;
    shed = 0;
    rejected = 0;
    batches = 0;
    faults = config.faults;
    batch_failures = 0;
    fault_shed = 0;
    latencies = [];
    queue_waits = [];
    batch_hist = Hashtbl.create 8;
    sim_ms = 0.0;
  }

(* Run one of the replica's calls, adding the compiles made meanwhile to
   [t.compiles]: a replica counts its own compiles, not the process's. *)
let counting t f =
  let c0 = Compiler.compiles () in
  Fun.protect ~finally:(fun () -> t.compiles <- t.compiles + (Compiler.compiles () - c0)) f

(* Why a snapshot cannot be served from a block warmed on a graph of
   [node_capacity] nodes and [edge_capacity] edges, if it cannot. *)
let misfit t ~fn ~node_capacity ~edge_capacity ~(graph : G.t) ?features ?rows () =
  if G.num_ntypes graph <> G.num_ntypes t.graph || G.num_etypes graph <> G.num_etypes t.graph
  then Some (fn ^ ": metagraph shape mismatch")
  else if graph.G.num_nodes > node_capacity then
    Some
      (Printf.sprintf "%s: %d nodes exceed warm capacity %d (epoch rebuild required)" fn
         graph.G.num_nodes node_capacity)
  else if graph.G.num_edges > edge_capacity then
    Some
      (Printf.sprintf "%s: %d edges exceed warm capacity %d (epoch rebuild required)" fn
         graph.G.num_edges edge_capacity)
  else
    match (features, rows) with
    | Some f, _
      when Tensor.cols f <> Tensor.cols (Block.features t.block)
           || Tensor.rows f <> graph.G.num_nodes ->
        Some (fn ^ ": features must be num_nodes x feature_dim")
    | None, Some _ -> Some (fn ^ ": rows without features")
    | _, Some rows when Array.exists (fun r -> r < 0 || r >= graph.G.num_nodes) rows ->
        Some (fn ^ ": a written row is out of range")
    | _ -> None

(* Install a snapshot that fits the current block: only the written
   feature rows are overwritten in place (every row when the caller
   cannot say which changed), and the cached incoming CSR replaced. *)
let install t ~graph ?features ?rows ~csr () =
  (match features with
  | Some f -> Block.update_features t.block ?rows f
  | None -> Block.invalidate_rows t.block);
  t.graph <- graph;
  t.in_csr <- csr;
  Hector_obs.add t.obs "serve.graph_updates" 1

(* Swap the served graph for a new snapshot of the same mutable parent —
   the streaming subsystem's in-slack path.  Within the warm capacity this
   recompiles nothing and reallocates nothing: the compiled plan, arena
   backings, staging tensors and the parent-features storage all survive.
   A snapshot beyond the warm capacity is refused — that is the epoch
   boundary, where the caller calls [rewarm] instead. *)
let update_graph t ~(graph : G.t) ?features ?rows ?csr () =
  counting t @@ fun () ->
  match
    misfit t ~fn:"Serve.update_graph" ~node_capacity:t.node_capacity
      ~edge_capacity:t.edge_capacity ~graph ?features ?rows ()
  with
  | Some msg -> Error msg
  | None ->
      install t ~graph ?features ?rows
        ~csr:(match csr with Some c -> Lazy.from_val c | None -> lazy (Csr.incoming graph))
        ();
      Ok ()

let model_weights t = Block.weights t.block
let engine t = Block.engine t.block
let launches t = (Stats.total (Engine.stats (engine t))).Stats.launches
let device_ms t = Engine.elapsed_ms (engine t)

(* The epoch boundary: grow the block to the new capacity graph in place
   and install the snapshot.  The capacity graph is only sized against,
   never served, so its CSR is never built. *)
let rewarm t ~(capacity : G.t) ~graph ~features ~csr =
  counting t @@ fun () ->
  match
    misfit t ~fn:"Serve.rewarm" ~node_capacity:capacity.G.num_nodes
      ~edge_capacity:capacity.G.num_edges ~graph ~features ()
  with
  | Some msg -> Error msg
  | None ->
      Block.resize t.block ~graph:capacity;
      t.node_capacity <- capacity.G.num_nodes;
      t.edge_capacity <- capacity.G.num_edges;
      t.warm_alloc_count <- Memory.alloc_count (Engine.memory (engine t));
      install t ~graph ~features ~csr:(Lazy.from_val csr) ();
      Ok ()

(* Execute one coalesced batch: union-sample a block as deep as the
   forward reads, stage it onto the replica ({!Block.stage}), run the
   compiled forward plan on the rebound executor, and gather each
   request's seed rows out of the output. *)
let run_batch t (batch : Workload.request array) =
  Hector_obs.time t.obs ~kind:"run" "serve.batch" @@ fun () ->
  let seed_sets = Array.map (fun r -> r.Workload.seeds) batch in
  let sub, block_seed_sets =
    Sampler.sample_union
      ~seed:((batch.(0).Workload.id * 31) + 17)
      ~csr:(Lazy.force t.in_csr) ~graph:t.graph ~seed_sets ~fanout:t.fanout ~hops:t.sampled_hops ()
  in
  let block = sub.Sampler.graph in
  let sample_ms =
    Block.sample_cost_ms ~nodes:block.G.num_nodes ~edges:block.G.num_edges
  in
  let engine = engine t in
  let t0 = Engine.elapsed_ms engine in
  let exec = Block.stage t.block sub in
  let transfer_ms = Engine.elapsed_ms engine -. t0 in
  Exec.run_plan exec t.compiled.Compiler.forward;
  let compute_ms = Engine.elapsed_ms engine -. t0 -. transfer_ms in
  let out = (Env.find exec.Exec.env t.inputs.Block.out_name).Env.tensor in
  let per_request = Array.map (Tensor.gather_rows out) block_seed_sets in
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
   episode: the simulated admission clock restarts at zero, while the
   compiled plan, executor and load accounting persist across calls).  The batch
   former dispatches when the server is free and either [max_batch]
   requests are queued or the oldest has waited [max_wait_ms] (or no
   arrival can improve the batch).  Arrivals seen while the queue holds
   [queue_capacity] requests are shed. *)
let serve t (requests : Workload.request array) =
  counting t @@ fun () ->
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
  let st = Engine.stats (engine t) in
  M.envelope ~subsystem:"serve" ~elapsed_ms:t.sim_ms ~launches:(launches t)
    Hector_json.
      [
        ( "comm",
          M.comm ~posted_ms:(Engine.posted_comm_ms (engine t))
            ~exposed_ms:(Stats.of_category st Kernel.Comm).Stats.time_ms );
        ("requests", int s.requests);
        ("served", int s.lserved);
        ("shed", int s.lshed);
        ("rejected", int t.rejected);
        ("batches", int s.lbatches);
        ("batch_failures", int t.batch_failures);
        ("fault_shed", int t.fault_shed);
        ("hops", Obj [ ("bound", int t.hops); ("sampled", int t.sampled_hops) ]);
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
        ("compiles", int t.compiles);
        ("launches_per_request", Num s.launches_per_request);
        ("alloc_count", int (Memory.alloc_count (Engine.memory (engine t))));
        ("sim_elapsed_ms", Num t.sim_ms);
      ]

let compiles t = t.compiles
let plan_cache t = t.compiles
let compiled t = t.compiled
let obs t = t.obs
let served t = t.served
let shed t = t.shed
let rejected t = t.rejected
let batch_failures t = t.batch_failures
let fault_shed t = t.fault_shed
let faults t = t.faults
let exec t = Block.exec t.block
let batches t = t.batches
let warm_alloc_count t = t.warm_alloc_count
let max_batch t = t.max_batch
let queue_capacity t = t.queue_capacity
