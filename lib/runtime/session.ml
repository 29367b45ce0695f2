module Tensor = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module G = Hector_graph.Hetgraph
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Compiler = Hector_core.Compiler

module Config = struct
  type t = {
    device : Hector_gpu.Device.t;
    seed : int;
    trace : bool;
    observability : Hector_obs.t option;
    engine : Engine.t option;
    node_inputs : (string * Tensor.t) list;
    edge_inputs : (string * Tensor.t) list;
    weights : (string * Tensor.t) list;
  }

  let default =
    {
      device = Hector_gpu.Device.rtx3090;
      seed = 1;
      trace = false;
      observability = None;
      engine = None;
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
  let obs = Option.value cfg.Config.observability ~default:Hector_obs.disabled in
  let engine =
    match cfg.Config.engine with
    | Some e -> e
    | None ->
        Engine.create ~device:cfg.Config.device ~scale:graph.G.scale ~trace:cfg.Config.trace
          ~obs ()
  in
  let ctx = Graph_ctx.create graph in
  let env = Env.create () in
  let exec = Exec.create ~engine ~ctx ~env () in
  let rng = Rng.create cfg.Config.seed in
  let program = compiled.Compiler.forward.Plan.program in
  let fused = Train.fused_outs compiled.Compiler.weight_ops in
  (* parameters *)
  List.iter
    (fun decl ->
      let name = Ir.decl_name decl in
      if not (List.mem name fused) then
        match decl with
        | Ir.Weight_mat _ | Ir.Weight_vec _ ->
            let shape = Graph_ctx.weight_shape ctx program name in
            let w =
              match List.assoc_opt name weights with
              | Some w when Tensor.shape w = shape -> w
              | Some _ -> invalid_arg (Printf.sprintf "Session.create: weight %S has the wrong shape" name)
              | None -> Tensor.glorot rng shape
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
let reset_clock t = Engine.reset_clock t.exec.Exec.engine
let metrics_json t =
  let module M = Hector_obs.Metrics in
  let module Stats = Hector_gpu.Stats in
  let e = engine t in
  let st = Engine.stats e in
  let o = obs t in
  M.envelope ~subsystem:"session" ~elapsed_ms:(Engine.elapsed_ms e)
    ~launches:(Stats.total st).Stats.launches
    ([
       ( "comm",
         M.comm ~posted_ms:(Engine.posted_comm_ms e)
           ~exposed_ms:(Stats.of_category st Hector_gpu.Kernel.Comm).Stats.time_ms );
       ("attributed_ms", Hector_json.Num (Stats.attributed_ms st));
       ("by_category", Engine.by_category_json e);
       ("by_op", Engine.by_op_json e);
     ]
    @
    if Hector_obs.enabled o then
      [ ("counters", Hector_obs.counters_json o); ("spans", Hector_obs.spans_json o) ]
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

let loss_and_grads t ~labels = Train.loss_and_grads ~exec:t.exec t.compiled ~labels

let train_step t ?(lr = 0.01) ~labels () =
  let loss = loss_and_grads t ~labels in
  Train.sgd_step ~skip:t.fused_weight_names ~exec:t.exec ~lr ();
  loss
