module Tensor = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module G = Hector_graph.Hetgraph
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Compiler = Hector_core.Compiler
module Lf = Hector_core.Linear_fusion
module Autodiff = Hector_core.Autodiff

module Config = struct
  type t = {
    device : Hector_gpu.Device.t;
    seed : int;
    trace : bool;
    memory_planner : bool option;
    domains : int option;
    observability : Hector_obs.t option;
    engine : Engine.t option;
    slab : Exec.slab option;
    node_inputs : (string * Tensor.t) list;
    edge_inputs : (string * Tensor.t) list;
    weights : (string * Tensor.t) list;
  }

  let default =
    {
      device = Hector_gpu.Device.rtx3090;
      seed = 1;
      trace = false;
      memory_planner = None;
      domains = None;
      observability = None;
      engine = None;
      slab = None;
      node_inputs = [];
      edge_inputs = [];
      weights = [];
    }
end

type t = {
  exec : Exec.t;
  compiled : Compiler.compiled;
  fused_weight_names : string list;
  outputs : (string * int) list;  (* name, dim *)
  rng : Rng.t;  (* the init generator, kept for checkpointing its cursor *)
}

let fused_outs ops =
  List.map (function Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out) ops

let slice_count g = function
  | Ir.By_etype -> G.num_etypes g
  | Ir.By_ntype | Ir.By_src_ntype | Ir.By_dst_ntype -> G.num_ntypes g
  | Ir.Shared -> 1

(* RGCN's 1/c_{v,r}: reciprocal of the per-relation incoming degree of the
   destination.  Edges are grouped by type, so each relation's
   destinations are counted, read back and cleared before the next: one
   node-sized counter instead of a relation × node matrix. *)
let rgcn_norm_into g data off =
  let count = Array.make g.G.num_nodes 0 in
  for r = 0 to G.num_etypes g - 1 do
    let start, n = G.edges_of_type g r in
    for e = start to start + n - 1 do
      let v = g.G.dst.(e) in
      count.(v) <- count.(v) + 1
    done;
    for e = start to start + n - 1 do
      data.(off + e) <- 1.0 /. float_of_int (max 1 count.(g.G.dst.(e)))
    done;
    for e = start to start + n - 1 do
      count.(g.G.dst.(e)) <- 0
    done
  done

let rgcn_norm g =
  let t = Tensor.zeros [| g.G.num_edges; 1 |] in
  let data, off = Tensor.storage t in
  rgcn_norm_into g data off;
  t

let create ?config:(cfg = Config.default) ~graph compiled =
  let node_inputs = cfg.Config.node_inputs
  and edge_inputs = cfg.Config.edge_inputs
  and weights = cfg.Config.weights in
  (match cfg.Config.domains with
  | Some n -> Hector_tensor.Domain_pool.set_num_domains (Some n)
  | None -> ());
  let obs =
    match cfg.Config.observability with
    | Some o -> o
    | None ->
        if (Knobs.current ()).Knobs.obs then Hector_obs.create () else Hector_obs.disabled
  in
  let engine =
    match cfg.Config.engine with
    | Some e -> e
    | None ->
        Engine.create ~device:cfg.Config.device ~scale:graph.G.scale ~trace:cfg.Config.trace
          ~obs ()
  in
  let ctx = Graph_ctx.create graph in
  let env = Env.create () in
  let exec =
    Exec.create ?planner:cfg.Config.memory_planner ?slab:cfg.Config.slab ~engine ~ctx ~env ()
  in
  let rng = Rng.create cfg.Config.seed in
  let program = compiled.Compiler.forward.Plan.program in
  let fused = fused_outs compiled.Compiler.weight_ops in
  (* parameters *)
  List.iter
    (fun decl ->
      let name = Ir.decl_name decl in
      if not (List.mem name fused) then
        match decl with
        | Ir.Weight_mat { slice; rows; cols; _ } ->
            let w =
              match List.assoc_opt name weights with
              | Some w -> w
              | None -> Tensor.glorot rng [| slice_count graph slice; rows; cols |]
            in
            ignore
              (Memory.alloc (Engine.memory engine) ~graph_proportional:false ~label:name
                 (float_of_int (Tensor.numel w * 4)));
            Env.add_weight env ~name w
        | Ir.Weight_vec { slice; dim; _ } ->
            let w =
              match List.assoc_opt name weights with
              | Some w -> w
              | None -> Tensor.glorot rng [| slice_count graph slice; dim |]
            in
            ignore
              (Memory.alloc (Engine.memory engine) ~graph_proportional:false ~label:name
                 (float_of_int (Tensor.numel w * 4)));
            Env.add_weight env ~name w
        | Ir.Node_input { dim; _ } ->
            let x =
              match List.assoc_opt name node_inputs with
              | Some x -> x
              | None -> Tensor.randn rng [| graph.G.num_nodes; dim |]
            in
            let alloc =
              Engine.alloc_tensor engine ~label:name ~rows:graph.G.num_nodes ~cols:dim ()
            in
            Env.add env ~name
              { Env.tensor = x; space = Mat.Rows_nodes; dim; alloc = Some alloc }
        | Ir.Edge_input { dim; _ } ->
            let x =
              match List.assoc_opt name edge_inputs with
              | Some x -> x
              | None ->
                  if String.equal name "norm" && dim = 1 then rgcn_norm graph
                  else Tensor.randn rng [| graph.G.num_edges; dim |]
            in
            let alloc =
              Engine.alloc_tensor engine ~label:name ~rows:graph.G.num_edges ~cols:dim ()
            in
            Env.add env ~name
              { Env.tensor = x; space = Mat.Rows_edges; dim; alloc = Some alloc })
    program.Ir.decls;
  let infos = Hector_core.Check.check_exn program in
  let outputs =
    List.map
      (fun o ->
        match
          List.find_opt
            (fun (i : Hector_core.Check.var_info) ->
              i.Hector_core.Check.scope = `Node && String.equal i.Hector_core.Check.name o)
            infos
        with
        | Some i -> (o, Hector_core.Check.shape_dim i.Hector_core.Check.shape)
        | None -> invalid_arg (Printf.sprintf "Session: output %S not produced" o))
      program.Ir.outputs
  in
  { exec; compiled; fused_weight_names = fused; outputs; rng }

let exec t = t.exec
let engine t = t.exec.Exec.engine
let obs t = Engine.obs t.exec.Exec.engine
let weights t = Env.weights t.exec.Exec.env
let set_weights t ws = Train.set_weights ~exec:t.exec ws
let rng_state t = Rng.state t.rng
let weight_grads t = Env.weight_grads t.exec.Exec.env
let reset_clock ?keep_events t = Engine.reset_clock ?keep_events t.exec.Exec.engine
let metrics_json t =
  let module M = Hector_obs.Metrics in
  let module Stats = Hector_gpu.Stats in
  let e = engine t in
  let st = Engine.stats e in
  let o = obs t in
  M.envelope ~subsystem:"session" ~elapsed_ms:(Engine.elapsed_ms e)
    ~launches:(Stats.total st).Stats.launches
    ([
       M.comm ~posted_ms:(Engine.posted_comm_ms e)
         ~exposed_ms:(Stats.of_category st Hector_gpu.Kernel.Comm).Stats.time_ms;
       M.float "attributed_ms" (Stats.attributed_ms st);
       M.raw "by_category" (Engine.by_category_json e);
       M.raw "by_op" (Engine.by_op_json e);
     ]
    @
    if Hector_obs.enabled o then
      [ M.raw "counters" (Hector_obs.counters_json o); M.raw "spans" (Hector_obs.spans_json o) ]
    else [])
let chrome_trace t = Engine.to_chrome_trace ~obs:(obs t) (engine t)

let output_dim t =
  match t.outputs with (_, d) :: _ -> d | [] -> invalid_arg "Session: program has no outputs"

let forward t =
  let training = t.compiled.Compiler.options.Compiler.training in
  Exec.run_plan ~free_temps:(not training) t.exec t.compiled.Compiler.forward;
  List.map
    (fun (name, _) -> (name, Tensor.copy (Env.find t.exec.Exec.env name).Env.tensor))
    t.outputs

let loss_and_grads t ~labels =
  let backward =
    match t.compiled.Compiler.backward with
    | Some b -> b
    | None -> invalid_arg "Session.train_step: model compiled without training support"
  in
  Exec.run_plan ~free_temps:false t.exec t.compiled.Compiler.forward;
  let out_name, _ = List.hd t.outputs in
  let out = (Env.find t.exec.Exec.env out_name).Env.tensor in
  let loss, dout = Train.nll_loss ~engine:(engine t) ~out ~labels in
  (* seed gradient enters the backward plan as a node input *)
  let seed_name = Autodiff.grad_name out_name in
  (match Env.find_opt t.exec.Exec.env seed_name with
  | Some entry ->
      Tensor.fill entry.Env.tensor 0.0;
      Tensor.add_inplace entry.Env.tensor dout
  | None ->
      let alloc =
        Engine.alloc_tensor (engine t) ~label:seed_name ~rows:(Tensor.rows dout)
          ~cols:(Tensor.cols dout) ()
      in
      Env.add t.exec.Exec.env ~name:seed_name
        { Env.tensor = dout; space = Mat.Rows_nodes; dim = Tensor.cols dout; alloc = Some alloc });
  Exec.run_plan ~free_temps:true t.exec backward;
  Train.backprop_weight_ops ~exec:t.exec t.compiled.Compiler.weight_ops;
  (* free forward temporaries kept for the backward pass *)
  Exec.free_temp_buffers t.exec t.compiled.Compiler.forward;
  loss

let train_step t ?(lr = 0.01) ~labels () =
  let loss = loss_and_grads t ~labels in
  Train.sgd_step ~skip:t.fused_weight_names ~exec:t.exec ~lr ();
  loss
