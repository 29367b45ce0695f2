module Tensor = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan

type t = {
  device : Device.t;
  graph : G.t;
  features : Tensor.t;
  labels : int array;
  compiled : Compiler.compiled;
  feature_name : string;
  weights : (string * Tensor.t) list;  (** persistent across blocks *)
  rng : Rng.t;
  seed : int;  (** every per-step sampling seed derives from this *)
  mutable step_count : int;
}

type step_report = {
  loss : float;
  block_nodes : int;
  block_edges : int;
  sample_ms : float;
  transfer_ms : float;
  compute_ms : float;
}

let create ?(device = Device.rtx3090) ?(seed = 1) ~graph ~features ~labels compiled =
  if compiled.Compiler.backward = None then
    invalid_arg "Minibatch.create: model must be compiled with training = true";
  if Array.length labels <> graph.G.num_nodes then
    invalid_arg "Minibatch.create: one label per parent node required";
  let program = compiled.Compiler.forward.Plan.program in
  let feature_name =
    match
      List.filter_map
        (function Ir.Node_input { name; _ } -> Some name | _ -> None)
        program.Ir.decls
    with
    | [ name ] -> name
    | _ -> invalid_arg "Minibatch.create: model must declare exactly one node input"
  in
  (* initialize persistent parameters once, on a throwaway tiny block *)
  let probe =
    Sampler.sample ~seed ~graph ~seeds:[| 0 |] ~fanout:2 ~hops:1 ()
  in
  let session =
    Session.create ~config:{ Session.Config.default with device; seed } ~graph:probe.Sampler.graph
      compiled
  in
  {
    device;
    graph;
    features;
    labels;
    compiled;
    feature_name;
    weights = Session.weights session;
    rng = Rng.create (seed + 17);
    seed;
    step_count = 0;
  }

let weights t = t.weights

let step t ?(lr = 0.05) ?(fanout = 8) ?(hops = 2) ~batch () =
  t.step_count <- t.step_count + 1;
  let wall = Unix.gettimeofday () in
  let block =
    Sampler.sample
      ~seed:((t.seed * 1_000_003) + (t.step_count * 7919))
      ~graph:t.graph ~seeds:batch ~fanout ~hops ()
  in
  let sample_ms = (Unix.gettimeofday () -. wall) *. 1e3 in
  let sub = block.Sampler.graph in
  (* gather the block's features and labels on the host *)
  let feats = Tensor.gather_rows t.features (Sampler.induced_feature_rows block) in
  let labels = Array.map (fun v -> t.labels.(v)) block.Sampler.origin_node in
  let session =
    Session.create
      ~config:
        {
          Session.Config.default with
          device = t.device;
          seed = 3;
          node_inputs = [ (t.feature_name, feats) ];
          weights = t.weights;
        }
      ~graph:sub t.compiled
  in
  (* host→device transfer of the gathered features over PCIe *)
  let engine = Session.engine session in
  let bytes = float_of_int (Tensor.numel feats * 4) in
  Engine.launch engine
    (Kernel.make ~name:"h2d_features" ~category:Kernel.Copy ~graph_proportional:false
       ~grid_blocks:(max 1 (Tensor.numel feats / 1024))
       ~bytes_coalesced:bytes ());
  Engine.host_sync engine ~us:(bytes /. (t.device.Device.pcie_bandwidth_gbs *. 1e9) *. 1e6) ();
  let transfer_ms = Engine.elapsed_ms engine in
  let loss = Session.train_step session ~lr ~labels () in
  let compute_ms = Engine.elapsed_ms engine -. transfer_ms in
  {
    loss;
    block_nodes = sub.G.num_nodes;
    block_edges = sub.G.num_edges;
    sample_ms;
    transfer_ms;
    compute_ms;
  }

let train_epochs t ?(lr = 0.05) ?(fanout = 8) ?(hops = 2) ?(batch_size = 64) ~epochs () =
  let n = t.graph.G.num_nodes in
  let order = Array.init n (fun i -> i) in
  let final = ref nan in
  for _ = 1 to epochs do
    Rng.shuffle t.rng order;
    let losses = ref [] in
    let pos = ref 0 in
    while !pos < n do
      let len = min batch_size (n - !pos) in
      let batch = Array.sub order !pos len in
      let report = step t ~lr ~fanout ~hops ~batch () in
      losses := report.loss :: !losses;
      pos := !pos + len
    done;
    final :=
      List.fold_left ( +. ) 0.0 !losses /. float_of_int (max 1 (List.length !losses))
  done;
  !final
