module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Mat = Hector_core.Materialization

type inputs = {
  feature_name : string;
  feature_dim : int;
  out_name : string;
  edge_inputs : string list;
}

(* One node input (gathered per block) and only the "norm" edge input,
   which a block recomputes as Session does for a whole graph. *)
let inputs ~caller ?features ~(graph : G.t) (program : Ir.program) =
  let feature_name, feature_dim =
    match
      List.filter_map
        (function Ir.Node_input { name; dim } -> Some (name, dim) | _ -> None)
        program.Ir.decls
    with
    | [ input ] -> input
    | _ -> invalid_arg (caller ^ ": model must declare exactly one node input")
  in
  (match features with
  | Some f when Tensor.shape f <> [| graph.G.num_nodes; feature_dim |] ->
      invalid_arg
        (Printf.sprintf "%s: features must be %d x %d (num_nodes x %s dim), got %s" caller
           graph.G.num_nodes feature_dim feature_name
           (String.concat " x " (Array.to_list (Array.map string_of_int (Tensor.shape f)))))
  | _ -> ());
  let out_name =
    match program.Ir.outputs with
    | o :: _ -> o
    | [] -> invalid_arg (caller ^ ": model declares no outputs")
  in
  let edge_inputs =
    List.filter_map
      (function
        | Ir.Edge_input { name = "norm"; dim = 1 } -> Some "norm"
        | Ir.Edge_input { name; _ } ->
            invalid_arg (Printf.sprintf "%s: unsupported edge input %S (only norm)" caller name)
        | _ -> None)
      program.Ir.decls
  in
  { feature_name; feature_dim; out_name; edge_inputs }

(* A device charge the parent graph bounds: its nodes (else its edges) × [cols]. *)
type charge = { label : string; nodes : bool; cols : int; alloc : Memory.allocation }

let charge engine (graph : G.t) ~label ~nodes ~cols =
  let rows = if nodes then graph.G.num_nodes else graph.G.num_edges in
  { label; nodes; cols; alloc = Engine.alloc_tensor engine ~label ~rows ~cols () }

type t = {
  exec : Exec.t;  (* the warmup session's, on the replica's engine; rebound to each block *)
  weights : (string * Tensor.t) list;
  mutable features : Tensor.t;  (* parent node features, host-resident *)
  feature_name : string;
  mutable node_stage : Tensor.t;
      (* host staging for gathered features: inference grows it to the
         largest block staged, training holds parent capacity (so no step
         allocates); the device is charged parent capacity at warmup *)
  training : bool;
  mutable reuse : Row_reuse.t option;  (* inference: projected rows kept across blocks *)
  mutable edge_stage : (string * Tensor.t) list;  (* per edge input, parent capacity *)
  mutable seed_stage : (string * int * Tensor.t) option;
      (* training: seed-gradient name, width and parent-capacity backing *)
  mutable charges : charge list;  (* every parent-capacity device charge *)
  transfer : Kernel.provenance;
}

(* Deterministic host-side sampling cost (simulated ms): proportional to the
   block actually built, with a fixed per-call floor.  Kept out of the
   engine because sampling runs on the host, concurrently with nothing. *)
let sample_cost_ms ~nodes ~edges =
  0.01 +. (2e-4 *. float_of_int nodes) +. (5e-5 *. float_of_int edges)

let empty = Tensor.create_uninit [| 0 |]

(* Size the host side for a parent graph: each edge input's staging and,
   for training, the gathered features' and seed gradient's; for
   inference an empty row table (its feature staging grows per block). *)
let size_host t (graph : G.t) =
  let stage rows = Tensor.create_uninit [| rows |] and nodes = graph.G.num_nodes in
  if t.training then t.node_stage <- stage (nodes * Tensor.cols t.features)
  else
    t.reuse <-
      Some
        (Row_reuse.create ~obs:(Engine.obs t.exec.Exec.engine) ~nodes
           ~params:(List.map fst t.weights) ());
  t.edge_stage <- List.map (fun (name, _) -> (name, stage graph.G.num_edges)) t.edge_stage;
  t.seed_stage <- Option.map (fun (name, cols, _) -> (name, cols, stage (nodes * cols))) t.seed_stage

let create ?obs ?(weights = []) ?features ~origin ~seed ~graph (inputs : inputs)
    (compiled : Compiler.compiled) =
  let obs = Option.value obs ~default:Hector_obs.disabled in
  (* blocks run at physical size (scale 1) *)
  let engine = Engine.create ~scale:1.0 ~obs () in
  (* a session over the PARENT graph charges weights and features once and
     warms its executor's arenas at parent capacity, an upper bound on
     every block.  It runs no plan.  Its norm is never read (blocks
     recompute theirs), so it warms with zeros. *)
  let scfg =
    {
      Session.Config.default with
      Session.Config.engine = Some engine;
      seed;
      weights;
      node_inputs = (match features with Some f -> [ (inputs.feature_name, f) ] | None -> []);
      edge_inputs =
        List.map (fun name -> (name, Tensor.zeros [| graph.G.num_edges; 1 |])) inputs.edge_inputs;
    }
  in
  let session = Session.create ~config:scfg ~graph compiled in
  let exec = Session.exec session in
  (* a training model keeps its forward temporaries for the backward *)
  let training = compiled.Compiler.backward <> None in
  Exec.warm_plan ~free_temps:(not training) exec compiled.Compiler.forward;
  Option.iter (Exec.warm_plan exec) compiled.Compiler.backward;
  let features = (Env.find exec.Exec.env inputs.feature_name).Env.tensor in
  let seed_stage =
    if not training then None
    else Some (Hector_core.Autodiff.grad_name inputs.out_name, Session.output_dim session, empty)
  in
  (* the session's feature and norm charges are kept; staging is charged here *)
  let edge_specs prefix = List.map (fun name -> (prefix ^ name, false, 1)) inputs.edge_inputs in
  let charges =
    List.map
      (fun (label, nodes, cols) ->
        match (Env.find_opt exec.Exec.env label : Env.entry option) with
        | Some { alloc = Some alloc; _ } -> { label; nodes; cols; alloc }
        | _ -> charge engine graph ~label ~nodes ~cols)
      (((inputs.feature_name, true, inputs.feature_dim) :: edge_specs "")
      @ (("block/node_stage", true, inputs.feature_dim) :: edge_specs "block/edge_stage_")
      @ Option.to_list (Option.map (fun (_, cols, _) -> ("block/seed_grad", true, cols)) seed_stage))
  in
  Engine.reset_clock engine;
  let weights = Session.weights session in
  let t =
    {
      exec;
      weights;
      features;
      feature_name = inputs.feature_name;
      node_stage = empty;
      training;
      reuse = None;
      edge_stage = List.map (fun name -> (name, empty)) inputs.edge_inputs;
      seed_stage;
      charges;
      transfer = Kernel.provenance ~origin:(origin ^ ".transfer") "h2d_block";
    }
  in
  size_host t graph;
  t

(* Grow the replica to a new parent graph in place: each device charge
   freed and taken again at the new size, the host side regrown (every
   projected row is stale), and the executor rebound to the graph, whose
   arenas grow as they do for a larger block. *)
let resize t ~(graph : G.t) =
  let engine = t.exec.Exec.engine in
  t.charges <-
    List.map
      (fun { label; nodes; cols; alloc } ->
        Memory.free (Engine.memory engine) alloc;
        charge engine graph ~label ~nodes ~cols)
      t.charges;
  t.features <- Tensor.zeros [| graph.G.num_nodes; Tensor.cols t.features |];
  size_host t graph;
  Exec.rebind t.exec ~ctx:(Graph_ctx.create graph)

let stage t (sub : Sampler.subgraph) =
  let block = sub.Sampler.graph in
  let env = t.exec.Exec.env and engine = t.exec.Exec.engine in
  (* one row blit per block node *)
  let rows = Array.length sub.Sampler.origin_node in
  let dim = Tensor.cols t.features in
  if Tensor.numel t.node_stage < rows * dim then
    t.node_stage <- Tensor.create_uninit [| rows * dim |];
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
  (match t.seed_stage with
  | Some (name, dim, backing) ->
      let tensor = Tensor.view backing [| rows; dim |] in
      Env.add env ~name { Env.tensor; space = Mat.Rows_nodes; dim; alloc = None }
  | None -> ());
  (* host→device transfer of the staged inputs over PCIe *)
  let bytes = float_of_int ((rows * dim * 4) + !edge_bytes) in
  Engine.launch engine
    (Kernel.make ~name:"h2d_block" ~category:Kernel.Copy ~graph_proportional:false
       ~grid_blocks:(max 1 (rows * dim / 1024))
       ~bytes_coalesced:bytes ~provenance:t.transfer ());
  Engine.host_sync engine
    ~us:(bytes /. (Engine.device engine).Device.pcie_bandwidth_gbs /. 1e9 *. 1e6)
    ();
  let reuse =
    Option.map
      (fun table ->
        { Row_reuse.table; feature = t.feature_name; parent = sub.Sampler.origin_node })
      t.reuse
  in
  Exec.rebind t.exec ~ctx:(Graph_ctx.create block) ?reuse;
  t.exec

let update_features t ?rows src =
  let dim = Tensor.cols t.features and capacity = Tensor.rows t.features in
  if Tensor.cols src <> dim || Tensor.rows src > capacity then
    invalid_arg
      (Printf.sprintf "Block.update_features: %d x %d rows for %d x %d features" (Tensor.rows src)
         (Tensor.cols src) capacity dim);
  let s, so = Tensor.storage src and d, d0 = Tensor.storage t.features in
  match rows with
  | Some rows ->
      Array.iter
        (fun r ->
          if r < 0 || r >= Tensor.rows src then
            invalid_arg (Printf.sprintf "Block.update_features: row %d out of %d" r (Tensor.rows src)))
        rows;
      Array.iter (fun r -> Array.blit s (so + (r * dim)) d (d0 + (r * dim)) dim) rows;
      Option.iter (fun table -> Row_reuse.bump table rows) t.reuse
  | None ->
      Array.blit s so d d0 (Tensor.numel src);
      Option.iter Row_reuse.invalidate t.reuse

let invalidate_rows t = Option.iter Row_reuse.invalidate t.reuse
let engine t = t.exec.Exec.engine
let exec t = t.exec
let weights t = t.weights
let features t = t.features
