module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Partition = Hector_graph.Partition
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module Ir = Hector_core.Inter_ir
module Plan = Hector_core.Plan
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Compiler = Hector_core.Compiler
module Autodiff = Hector_core.Autodiff
module Lf = Hector_core.Linear_fusion
module Mat = Hector_core.Materialization
module Session = Hector_runtime.Session
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env
module Train = Hector_runtime.Train
module Knobs = Hector_runtime.Knobs

module Config = struct
  type t = {
    parts : int option;
    slack : float option;
    comms : Comms.t option;
    device : Hector_gpu.Device.t;
    seed : int;
    obs : Hector_obs.t option;
    overlap : bool;
    pipeline : int option;
    bucket_kb : int option;
    weights : (string * Tensor.t) list list option;
  }

  let default =
    {
      parts = None;
      slack = None;
      comms = None;
      device = Hector_gpu.Device.rtx3090;
      seed = 1;
      obs = None;
      overlap = true;
      pipeline = None;
      bucket_kb = None;
      weights = None;
    }
end

type layer = {
  compiled : Compiler.compiled;
  feature_name : string;
  out_name : string;
  in_dim : int;
  out_dim : int;
  master : (string * Tensor.t) list;
}

type replica = {
  part : Partition.part;
  engine : Engine.t;
  inputs : Tensor.t array;  (* per layer; persistent node-input binding *)
  sessions : Session.t array;  (* per layer, sharing [engine] and one slab *)
}

(* A gradient all-reduce bucket: the weights whose gradients it carries,
   the backward-plan step index after which they are all complete
   ([nsteps] = only after [Train.backprop_weight_ops]), and its payload. *)
type bucket = { bnames : string list; bready : int; bbytes : float }

type t = {
  graph : G.t;
  pt : Partition.t;
  cm : Comms.t;
  layers : layer array;
  replicas : replica array;
  features : Tensor.t;
  out_stage : Tensor.t;  (* parent-order assembled output *)
  fused : string list;  (* layer-0 fusion-computed weight names (not trained) *)
  reduce_scratch : (string * Tensor.t) list;  (* all-reduce accumulators *)
  training : bool;
  inv_n : float;  (* 1 / global node count — the masked-NLL normalizer *)
  overlap : bool;
  pipeline : int;  (* micro-batch pipeline depth (1 = off) *)
  buckets : bucket array;  (* gradient buckets, in readiness order *)
  nsteps_backward : int;
  mutable halo_prefetch : Comms.handle array array option;
      (* layer-0 halo transfers posted an epoch ahead: per replica, one
         handle per halo entry; dropped by [reset_clocks] *)
  pipe_seed : Tensor.t array;  (* per replica: full-seed scratch (pipeline) *)
}

let fused_outs ops =
  List.map (function Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out) ops

(* The single node input, the restricted edge inputs and the output name of
   one layer program. *)
let layer_io compiled =
  let program = compiled.Compiler.forward.Plan.program in
  let feature_name, in_dim =
    match
      List.filter_map
        (function Ir.Node_input { name; dim; _ } -> Some (name, dim) | _ -> None)
        program.Ir.decls
    with
    | [ nd ] -> nd
    | _ -> invalid_arg "Replica.create: each layer must declare exactly one node input"
  in
  List.iter
    (function
      | Ir.Edge_input { name; dim; _ } when not (String.equal name "norm" && dim = 1) ->
          invalid_arg
            (Printf.sprintf "Replica.create: unsupported edge input %S (only norm)" name)
      | _ -> ())
    program.Ir.decls;
  let out_name =
    match program.Ir.outputs with
    | o :: _ -> o
    | [] -> invalid_arg "Replica.create: layer program has no outputs"
  in
  (feature_name, in_dim, out_name)

(* --- gradient-bucket analysis ----------------------------------------

   For every trained weight, find the last top-level backward step that
   accumulates into its gradient (a dweight GEMM or a [Grad_weight]
   statement in a traversal/fallback body, looking through fused groups).
   Weights whose gradients only come from the linear-fusion chain rule
   ([Train.backprop_weight_ops]) are ready after the whole plan. *)

let rec stmt_writes_grad w = function
  | Ir.Grad_weight { name; _ } -> String.equal name w
  | Ir.For_each (_, body) -> List.exists (stmt_writes_grad w) body
  | Ir.Assign _ | Ir.Accumulate _ -> false

let rec step_writes_grad w (step : Plan.step) =
  match step with
  | Plan.Weight_op _ -> false
  | Plan.Gemm g -> (
      match g.Gs.task with
      | Gs.Edge_linear_dweight { grad_weight; _ } | Gs.Node_linear_dweight { grad_weight; _ }
        ->
          String.equal grad_weight w
      | _ -> false)
  | Plan.Traversal tr -> List.exists (stmt_writes_grad w) tr.Ts.body
  | Plan.Fallback fb -> List.exists (stmt_writes_grad w) fb.Plan.body
  | Plan.Fused { members; _ } -> List.exists (step_writes_grad w) members

let grad_ready_step (backward : Plan.t) ~nsteps w =
  let last = ref nsteps in
  List.iteri (fun i s -> if step_writes_grad w s then last := i) backward.Plan.steps;
  !last

let make_buckets (backward : Plan.t) ~bucket_bytes reduce_scratch =
  let nsteps = List.length backward.Plan.steps in
  let items =
    List.map
      (fun (n, s) ->
        (n, float_of_int (Tensor.numel s * 4), grad_ready_step backward ~nsteps n))
      reduce_scratch
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b)
  in
  let buckets = ref [] in
  let cur = ref [] and curb = ref 0.0 and curready = ref 0 in
  let flush () =
    if !cur <> [] then begin
      buckets := { bnames = List.rev !cur; bready = !curready; bbytes = !curb } :: !buckets;
      cur := [];
      curb := 0.0;
      curready := 0
    end
  in
  List.iter
    (fun (n, b, rdy) ->
      cur := n :: !cur;
      curb := !curb +. b;
      curready := max !curready rdy;
      if !curb >= bucket_bytes then flush ())
    items;
  flush ();
  Array.of_list (List.rev !buckets)

let create ?config:(cfg = Config.default) ~features ~(graph : G.t) layers =
  if layers = [] then invalid_arg "Replica.create: empty layer stack";
  let knobs = Knobs.current () in
  let parts =
    match cfg.Config.parts with
    | Some p -> p
    | None -> ( match knobs.Knobs.dist_parts with Some p -> p | None -> 2)
  in
  let cm = match cfg.Config.comms with Some c -> c | None -> Comms.default () in
  let obs =
    match cfg.Config.obs with
    | Some o -> o
    | None -> if knobs.Knobs.obs then Hector_obs.create () else Hector_obs.disabled
  in
  let device = cfg.Config.device and seed = cfg.Config.seed in
  let pipeline =
    let d =
      match cfg.Config.pipeline with
      | Some d -> d
      | None -> ( match knobs.Knobs.dist_pipeline with Some d -> d | None -> 1)
    in
    if d < 1 then invalid_arg "Replica.create: pipeline depth must be positive";
    d
  in
  let bucket_bytes =
    let kb =
      match cfg.Config.bucket_kb with
      | Some k -> k
      | None -> ( match knobs.Knobs.dist_bucket_kb with Some k -> k | None -> 64)
    in
    if kb < 1 then invalid_arg "Replica.create: bucket size must be positive";
    float_of_int (kb * 1024)
  in
  if Tensor.rows features <> graph.G.num_nodes then
    invalid_arg "Replica.create: features must have one row per parent node";
  (* master weights: one probe session per layer over the parent graph, so
     every replica (and any reference session built from [master_weights])
     starts from the same stacks *)
  let layer_recs =
    Array.of_list layers
    |> Array.mapi (fun l compiled ->
           let feature_name, in_dim, out_name = layer_io compiled in
           (* restored weights (e.g. from a checkpoint) replace the Glorot
              draw for this layer; omitted layers still draw as usual *)
           let restored =
             match cfg.Config.weights with
             | Some wss when l < List.length wss -> List.nth wss l
             | _ -> []
           in
           let probe_cfg =
             {
               Session.Config.default with
               Session.Config.device;
               seed = seed + (l * 1009);
               weights = restored;
             }
           in
           let probe = Session.create ~config:probe_cfg ~graph compiled in
           {
             compiled;
             feature_name;
             out_name;
             in_dim;
             out_dim = Session.output_dim probe;
             master = List.map (fun (n, w) -> (n, Tensor.copy w)) (Session.weights probe);
           })
  in
  if layer_recs.(0).in_dim <> Tensor.cols features then
    invalid_arg
      (Printf.sprintf "Replica.create: layer 0 expects %d input features, got %d"
         layer_recs.(0).in_dim (Tensor.cols features));
  Array.iteri
    (fun l lrec ->
      if l > 0 && lrec.in_dim <> layer_recs.(l - 1).out_dim then
        invalid_arg
          (Printf.sprintf "Replica.create: layer %d expects width %d, layer %d produces %d" l
             lrec.in_dim (l - 1)
             layer_recs.(l - 1).out_dim))
    layer_recs;
  let training =
    Array.length layer_recs = 1 && layer_recs.(0).compiled.Compiler.backward <> None
  in
  let pt = Partition.partition ?slack:cfg.Config.slack ~parts graph in
  let replicas =
    Array.map
      (fun (part : Partition.part) ->
        let engine = Engine.create ~device ~scale:1.0 ~obs () in
        let slab = Exec.create_slab () in
        let n_local = part.Partition.sub.G.num_nodes in
        let inputs =
          Array.map (fun lrec -> Tensor.zeros [| n_local; lrec.in_dim |]) layer_recs
        in
        let sessions =
          Array.mapi
            (fun l lrec ->
              let scfg =
                {
                  Session.Config.default with
                  Session.Config.engine = Some engine;
                  slab = Some slab;
                  seed;
                  node_inputs = [ (lrec.feature_name, inputs.(l)) ];
                  weights = List.map (fun (n, w) -> (n, Tensor.copy w)) lrec.master;
                }
              in
              Session.create ~config:scfg ~graph:part.Partition.sub lrec.compiled)
            layer_recs
        in
        (* warm every plan's arena now, so the first epoch already runs at
           the steady-state allocation count *)
        Array.iteri
          (fun l lrec ->
            let exec = Session.exec sessions.(l) in
            Exec.warm_plan ~free_temps:(not training) exec lrec.compiled.Compiler.forward;
            match lrec.compiled.Compiler.backward with
            | Some b when training -> Exec.warm_plan ~free_temps:true exec b
            | _ -> ())
          layer_recs;
        (* the backward plan's seed gradient enters as a node input; bind a
           persistent buffer once so training steps never allocate it *)
        if training then begin
          let lrec = layer_recs.(0) in
          let seed_name = Autodiff.grad_name lrec.out_name in
          let alloc =
            Engine.alloc_tensor engine ~label:seed_name ~rows:n_local ~cols:lrec.out_dim ()
          in
          Env.add (Session.exec sessions.(0)).Exec.env ~name:seed_name
            {
              Env.tensor = Tensor.zeros [| n_local; lrec.out_dim |];
              space = Mat.Rows_nodes;
              dim = lrec.out_dim;
              alloc = Some alloc;
            }
        end;
        { part; engine; inputs; sessions })
      pt.Partition.members
  in
  let fused = fused_outs layer_recs.(0).compiled.Compiler.weight_ops in
  let reduce_scratch =
    if training then
      List.filter_map
        (fun (n, w) ->
          if List.mem n fused then None else Some (n, Tensor.zeros (Tensor.shape w)))
        layer_recs.(0).master
    else []
  in
  let buckets, nsteps_backward =
    if training then
      let backward = Option.get layer_recs.(0).compiled.Compiler.backward in
      (make_buckets backward ~bucket_bytes reduce_scratch, List.length backward.Plan.steps)
    else ([||], 0)
  in
  let pipe_seed =
    if training && pipeline > 1 then
      Array.map
        (fun (part : Partition.part) ->
          Tensor.zeros [| part.Partition.sub.G.num_nodes; layer_recs.(0).out_dim |])
        pt.Partition.members
    else [||]
  in
  {
    graph;
    pt;
    cm;
    layers = layer_recs;
    replicas;
    features;
    out_stage = Tensor.zeros [| graph.G.num_nodes; layer_recs.(Array.length layer_recs - 1).out_dim |];
    fused;
    reduce_scratch;
    training;
    inv_n = 1.0 /. float_of_int (max 1 graph.G.num_nodes);
    overlap = cfg.Config.overlap;
    pipeline;
    buckets;
    nsteps_backward;
    halo_prefetch = None;
    pipe_seed;
  }

let parts t = t.pt.Partition.parts
let partition t = t.pt
let comms t = t.cm
let overlap t = t.overlap
let pipeline_depth t = t.pipeline
let master_weights t = Array.to_list (Array.map (fun lrec -> lrec.master) t.layers)
let engines t = Array.map (fun r -> r.engine) t.replicas

let weights_of t p =
  if p < 0 || p >= Array.length t.replicas then invalid_arg "Replica.weights_of: bad replica";
  Session.weights t.replicas.(p).sessions.(0)

let elapsed_ms t =
  Array.fold_left (fun acc r -> Float.max acc (Engine.elapsed_ms r.engine)) 0.0 t.replicas

let comm_ms t =
  Array.fold_left
    (fun acc r -> acc +. (Stats.of_category (Engine.stats r.engine) Kernel.Comm).Stats.time_ms)
    0.0 t.replicas

let posted_comm_ms t =
  Array.fold_left (fun acc r -> acc +. Engine.posted_comm_ms r.engine) 0.0 t.replicas

let busy_ms t =
  Array.fold_left
    (fun acc r -> acc +. Stats.attributed_ms (Engine.stats r.engine))
    0.0 t.replicas

let launches t =
  Array.fold_left
    (fun acc r -> acc + (Stats.total (Engine.stats r.engine)).Stats.launches)
    0 t.replicas

let alloc_counts t =
  Array.map (fun r -> Memory.alloc_count (Engine.memory r.engine)) t.replicas

let reset_clocks t =
  t.halo_prefetch <- None;
  Array.iter (fun r -> Engine.reset_clock r.engine) t.replicas

let copy_row ~src ~si ~dst ~di d =
  let sa, s0 = Tensor.storage src and da, d0 = Tensor.storage dst in
  Array.blit sa (s0 + (si * Tensor.cols src)) da (d0 + (di * Tensor.cols dst)) d

(* BSP barrier: bring every replica to the slowest clock before a
   communication phase, attributed as host sync so per-op times still cover
   the whole clock. *)
let barrier t =
  let tmax = elapsed_ms t in
  Array.iter
    (fun r ->
      let lag = tmax -. Engine.elapsed_ms r.engine in
      if lag > 0.0 then Engine.host_sync r.engine ~us:(lag *. 1e3) ())
    t.replicas

(* The historic blocking transfer: post on channel 0 and stall immediately. *)
let charge_sync cm engine ~op ~messages ~bytes =
  Comms.wait (Comms.post cm engine ~chan:0 ~op ~messages ~bytes)

let out_tensor r lrec =
  (Env.find (Session.exec r.sessions.(0)).Exec.env lrec.out_name).Env.tensor

let layer_out_tensor r l lrec =
  (Env.find (Session.exec r.sessions.(l)).Exec.env lrec.out_name).Env.tensor

let halo_bytes lrec pairs = float_of_int (Array.length pairs * lrec.in_dim * 4)

(* Post one layer's halo transfers for every replica: one transfer per halo
   peer, spread over the channels by peer index.  [ready_of peer] is the
   simulated time the payload leaves the owning replica (layer-0 features
   are always ready). *)
let post_halos t l ~ready_of =
  let lrec = t.layers.(l) in
  Array.map
    (fun r ->
      Array.mapi
        (fun hi (peer, pairs) ->
          Comms.post t.cm ?ready:(ready_of peer) r.engine ~chan:hi ~op:"halo_exchange"
            ~messages:1 ~bytes:(halo_bytes lrec pairs))
        r.part.Partition.halo)
    t.replicas

let wait_halos t handles =
  Array.iteri (fun _ hs -> Array.iter Comms.wait hs) handles;
  ignore t

(* Fill layer [l]'s input on every replica: owned rows from the layer's
   upstream (parent features for layer 0, the replica's own previous-layer
   output otherwise), halo rows from the owning replica — the exchange
   proper, charged to the receiving engine. *)
let fill_and_exchange t l =
  let lrec = t.layers.(l) in
  Array.iter
    (fun r ->
      let input = r.inputs.(l) in
      if l = 0 then
        (* layer 0: every local row mirrors the parent feature row; the halo
           rows' values are what the owners would send, so only the cost is
           charged below *)
        Array.iteri
          (fun i parent -> copy_row ~src:t.features ~si:parent ~dst:input ~di:i lrec.in_dim)
          r.part.Partition.origin_node
      else begin
        (* self rows from the replica's own previous-layer output (halo rows
           are stale here and overwritten by the exchange) *)
        let prev = layer_out_tensor r (l - 1) t.layers.(l - 1) in
        Tensor.fill input 0.0;
        Tensor.add_inplace input prev
      end)
    t.replicas;
  (* halo row values for l > 0 come from the owning replica's previous-layer
     output (host-side copies; the simulated transfer cost is charged below) *)
  if l > 0 then
    Array.iter
      (fun r ->
        let input = r.inputs.(l) in
        Array.iter
          (fun (peer, pairs) ->
            let src = layer_out_tensor t.replicas.(peer) (l - 1) t.layers.(l - 1) in
            Array.iter
              (fun (local, peer_local) ->
                copy_row ~src ~si:peer_local ~dst:input ~di:local lrec.in_dim)
              pairs)
          r.part.Partition.halo)
      t.replicas;
  if not t.overlap then begin
    (* BSP: lockstep barrier, then serialized blocking transfers *)
    barrier t;
    Array.iter
      (fun r ->
        Array.iter
          (fun (_, pairs) ->
            charge_sync t.cm r.engine ~op:"halo_exchange" ~messages:1
              ~bytes:(halo_bytes lrec pairs))
          r.part.Partition.halo)
      t.replicas
  end
  else if l = 0 then begin
    (* overlapped: wait on the transfers prefetched an epoch ahead (first
       epoch: post now — channels still overlap the per-peer transfers),
       then immediately post the next epoch's exchange so it rides under
       this epoch's compute.  Features are static, so the payload is
       always ready. *)
    let handles =
      match t.halo_prefetch with
      | Some hs -> hs
      | None -> post_halos t 0 ~ready_of:(fun _ -> None)
    in
    wait_halos t handles;
    t.halo_prefetch <- Some (post_halos t 0 ~ready_of:(fun _ -> None))
  end
  else begin
    (* overlapped inner layer: the payload leaves the peer once its
       previous layer finished (its current clock); transfers to one
       replica overlap each other across channels *)
    let handles =
      post_halos t l ~ready_of:(fun peer ->
          Some (Engine.elapsed_ms t.replicas.(peer).engine))
    in
    wait_halos t handles
  end

let run_layer t l =
  Array.iter
    (fun r ->
      Exec.run_plan ~free_temps:(not t.training)
        (Session.exec r.sessions.(l))
        t.layers.(l).compiled.Compiler.forward)
    t.replicas

let assemble t =
  let last = Array.length t.layers - 1 in
  let lrec = t.layers.(last) in
  Array.iter
    (fun r ->
      let out = layer_out_tensor r last lrec in
      Array.iter
        (fun i ->
          copy_row ~src:out ~si:i ~dst:t.out_stage
            ~di:r.part.Partition.origin_node.(i)
            lrec.out_dim)
        r.part.Partition.owned_nodes)
    t.replicas;
  t.out_stage

let forward t =
  for l = 0 to Array.length t.layers - 1 do
    fill_and_exchange t l;
    run_layer t l
  done;
  assemble t

(* Masked NLL over this replica's owned rows, normalized by the global node
   count; the gradient lands directly in the persistent backward-seed
   buffer (halo rows zero).  Same math and kernel charges as
   [Train.nll_loss], restricted to the owned rows. *)
let masked_nll t (r : replica) ~labels =
  let lrec = t.layers.(0) in
  let out = out_tensor r lrec in
  let seed = (Env.find (Session.exec r.sessions.(0)).Exec.env (Autodiff.grad_name lrec.out_name)).Env.tensor in
  let c = lrec.out_dim in
  let oa, o0 = Tensor.storage out and sa, s0 = Tensor.storage seed in
  let ocols = Tensor.cols out and scols = Tensor.cols seed and inv_n = t.inv_n in
  let loss = ref 0.0 in
  let owned_count = ref 0 in
  let origin = r.part.Partition.origin_node and owned = r.part.Partition.owned in
  for i = 0 to Array.length origin - 1 do
    let ob = o0 + (i * ocols) and sb = s0 + (i * scols) in
    if owned.(i) then begin
      incr owned_count;
      let label = labels.(origin.(i)) in
      if label < 0 || label >= c then invalid_arg "Replica.train_step: label out of range";
      let m = ref neg_infinity in
      for j = 0 to c - 1 do
        if oa.(ob + j) > !m then m := oa.(ob + j)
      done;
      let z = ref 0.0 in
      for j = 0 to c - 1 do
        z := !z +. Stdlib.exp (oa.(ob + j) -. !m)
      done;
      let logz = Stdlib.log !z +. !m in
      loss := !loss -. ((oa.(ob + label) -. logz) *. inv_n);
      for j = 0 to c - 1 do
        let p = Stdlib.exp (oa.(ob + j) -. logz) in
        sa.(sb + j) <- (if j = label then p -. 1.0 else p) *. inv_n
      done
    end
    else Array.fill sa sb c 0.0
  done;
  let n = !owned_count in
  let bytes = float_of_int (n * c * 4) in
  let launch name flops =
    Engine.launch r.engine
      (Kernel.make ~name ~category:Kernel.Reduction
         ~grid_blocks:(max 1 (n / 256))
         ~flops ~bytes_coalesced:(2.0 *. bytes)
         ~provenance:(Kernel.provenance ~origin:"dist.replica" "loss")
         ())
  in
  launch "log_softmax" (float_of_int (n * c * 5));
  launch "nll_grad" (float_of_int (n * c));
  !loss

(* Fixed-order sum of one weight's gradient across replicas, broadcast back
   — every replica ends up holding the identical summed gradient, exactly
   as in the single-replica reference (up to reassociation). *)
let reduce_weight t name scratch =
  let grads =
    Array.map
      (fun r -> Tensor.storage (Env.weight_grad (Session.exec r.sessions.(0)).Exec.env name))
      t.replicas
  in
  let sa, s0 = Tensor.storage scratch and p = Array.length grads in
  (* one pass per element: sum from 0.0 in replica order, then store
     [0.0 +. sum] in every replica — accumulating into a zeroed gradient,
     so a -0.0 sum is stored as +0.0 *)
  for k = 0 to Tensor.numel scratch - 1 do
    let s = ref 0.0 in
    for q = 0 to p - 1 do
      let a, o = grads.(q) in
      s := !s +. a.(o + k)
    done;
    sa.(s0 + k) <- !s;
    for q = 0 to p - 1 do
      let a, o = grads.(q) in
      a.(o + k) <- 0.0 +. !s
    done
  done

(* Simulated ring all-reduce, BSP flavour: synchronize, reduce everything,
   charge one blocking transfer of the standard ring figure — 2·(P−1)
   messages of total_bytes/P each — per replica. *)
let allreduce_grads_bsp t =
  barrier t;
  List.iter (fun (name, scratch) -> reduce_weight t name scratch) t.reduce_scratch;
  let p = t.pt.Partition.parts in
  if p > 1 then begin
    let total_bytes =
      List.fold_left
        (fun acc (_, s) -> acc +. float_of_int (Tensor.numel s * 4))
        0.0 t.reduce_scratch
    in
    let messages = 2 * (p - 1) in
    Array.iter
      (fun r ->
        charge_sync t.cm r.engine ~op:"allreduce" ~messages
          ~bytes:(float_of_int messages *. total_bytes /. float_of_int p))
      t.replicas
  end

(* Bucketed overlapped all-reduce: bucket [b]'s ring transfer is posted on
   channel [b] as soon as every replica has passed the bucket's last
   gradient-producing backward step ([ready_clock]), so early buckets ride
   under the backward tail; replicas stall only on [Comms.wait] before the
   SGD step. *)
let allreduce_grads_overlapped t ready_clock =
  let p = t.pt.Partition.parts in
  let handles = ref [] in
  Array.iteri
    (fun bi bucket ->
      List.iter
        (fun name -> reduce_weight t name (List.assoc name t.reduce_scratch))
        bucket.bnames;
      if p > 1 then begin
        let ready =
          Array.fold_left
            (fun acc row -> Float.max acc row.(bucket.bready))
            0.0 ready_clock
        in
        let messages = 2 * (p - 1) in
        let bytes = float_of_int messages *. bucket.bbytes /. float_of_int p in
        Array.iter
          (fun r ->
            handles :=
              Comms.post t.cm ~ready r.engine ~chan:bi ~op:"allreduce" ~messages ~bytes
              :: !handles)
          t.replicas
      end)
    t.buckets;
  List.iter Comms.wait (List.rev !handles)

(* Pipelined backward: split each replica's seed gradient into [D] disjoint
   owned-row chunks and run backward once per chunk — replica [p] starts at
   chunk [(p + m) mod D], so at any pipeline stage the replicas work on
   different micro-batches.  Backward is linear in the seed, the chunks are
   disjoint, and weight gradients accumulate in the environment across
   runs, so the summed gradients match the full-batch run exactly. *)
let run_backward_pipelined t backward ready_clock =
  let lrec = t.layers.(0) in
  let d = t.pipeline in
  Array.iteri
    (fun pi r ->
      let exec = Session.exec r.sessions.(0) in
      let seed = (Env.find exec.Exec.env (Autodiff.grad_name lrec.out_name)).Env.tensor in
      let full = t.pipe_seed.(pi) in
      Tensor.fill full 0.0;
      Tensor.add_inplace full seed;
      let owned = r.part.Partition.owned_nodes in
      let n = Array.length owned in
      for m = 0 to d - 1 do
        let chunk = (pi + m) mod d in
        let lo = chunk * n / d and hi = (chunk + 1) * n / d in
        Tensor.fill seed 0.0;
        for k = lo to hi - 1 do
          copy_row ~src:full ~si:owned.(k) ~dst:seed ~di:owned.(k) lrec.out_dim
        done;
        (* bucket readiness comes from the last micro-batch: a gradient is
           complete only once every chunk contributed *)
        let on_step =
          if m = d - 1 then
            Some (fun i -> ready_clock.(pi).(i) <- Engine.elapsed_ms r.engine)
          else None
        in
        Exec.run_plan ?on_step ~free_temps:true exec backward
      done;
      (* the fused-product gradients are fully accumulated now; chain them
         through the weight-op factors exactly once *)
      Train.backprop_weight_ops ~exec lrec.compiled.Compiler.weight_ops;
      ready_clock.(pi).(t.nsteps_backward) <- Engine.elapsed_ms r.engine;
      Exec.free_temp_buffers exec lrec.compiled.Compiler.forward)
    t.replicas

let run_backward t backward ready_clock =
  Array.iteri
    (fun pi r ->
      let exec = Session.exec r.sessions.(0) in
      let on_step =
        if t.overlap then
          Some (fun i -> ready_clock.(pi).(i) <- Engine.elapsed_ms r.engine)
        else None
      in
      Exec.run_plan ?on_step ~free_temps:true exec backward;
      Train.backprop_weight_ops ~exec t.layers.(0).compiled.Compiler.weight_ops;
      ready_clock.(pi).(t.nsteps_backward) <- Engine.elapsed_ms r.engine;
      Exec.free_temp_buffers exec t.layers.(0).compiled.Compiler.forward)
    t.replicas

let train_step t ?(lr = 0.01) ~labels () =
  if not t.training then
    invalid_arg "Replica.train_step: requires a single layer compiled with training = true";
  if Array.length labels <> t.graph.G.num_nodes then
    invalid_arg "Replica.train_step: one label per parent node required";
  let lrec = t.layers.(0) in
  let backward = Option.get lrec.compiled.Compiler.backward in
  fill_and_exchange t 0;
  run_layer t 0;
  let total_loss = ref 0.0 in
  Array.iter (fun r -> total_loss := !total_loss +. masked_nll t r ~labels) t.replicas;
  let ready_clock =
    Array.make_matrix (Array.length t.replicas) (t.nsteps_backward + 1) 0.0
  in
  if t.overlap && t.pipeline > 1 then run_backward_pipelined t backward ready_clock
  else run_backward t backward ready_clock;
  if t.overlap then allreduce_grads_overlapped t ready_clock else allreduce_grads_bsp t;
  Array.iter
    (fun r -> Train.sgd_step ~skip:t.fused ~exec:(Session.exec r.sessions.(0)) ~lr ())
    t.replicas;
  !total_loss

let metrics_json t =
  let module M = Hector_obs.Metrics in
  let replica i r =
    let st = Engine.stats r.engine in
    Hector_json.(
      Obj
        [
          ("replica", int i);
          ("elapsed_ms", Num (Engine.elapsed_ms r.engine));
          ("comm_ms", Num (Stats.of_category st Kernel.Comm).Stats.time_ms);
          ("launches", int (Stats.total st).Stats.launches);
          ("alloc_count", int (Memory.alloc_count (Engine.memory r.engine)));
        ])
  in
  M.envelope ~subsystem:"dist" ~elapsed_ms:(elapsed_ms t) ~launches:(launches t)
    Hector_json.
      [
        ("comm", M.comm ~posted_ms:(posted_comm_ms t) ~exposed_ms:(comm_ms t));
        ("parts", int (parts t));
        ("edge_cut", Num (Partition.edge_cut_fraction t.pt));
        ("balance", Num (Partition.balance t.pt));
        ("comm_ms", Num (comm_ms t));
        ("busy_ms", Num (busy_ms t));
        ("replicas", Arr (Array.to_list (Array.mapi replica t.replicas)));
      ]
