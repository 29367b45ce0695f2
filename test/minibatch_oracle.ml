(* The per-step-session mini-batch trainer that [Hector_runtime.Minibatch]
   replaced, kept as the reference the block-replica trainer is tested
   against (test_sampler.ml's oracle case).  Every step builds a whole
   [Session] over the sampled block (a fresh engine, executor, arena and
   environment), gathers the block's features and labels with an
   allocating [Tensor.gather_rows] and [Array.map], and runs a training
   step whose loss is masked to the seeds' block rows, then SGD.

   One thing follows the block staging rather than the old code: the
   transfer is charged as [Block.stage] charges it (feature and norm
   bytes), so both trainers read [compute_ms] off the same clock base. *)

module Tensor = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Train = Hector_runtime.Train

type t = {
  graph : G.t;
  features : Tensor.t;
  labels : int array;
  compiled : Compiler.compiled;
  weights : (string * Tensor.t) list;  (* updated in place by every step *)
  seed : int;
  mutable step_count : int;
}

let create ~seed ~graph ~features ~labels ~weights compiled =
  { graph; features; labels; compiled; weights; seed; step_count = 0 }

(* One step over [batch]: the loss and the simulated compute time. *)
let step t ~lr ~fanout ~hops ~batch =
  t.step_count <- t.step_count + 1;
  let block =
    Sampler.sample
      ~seed:((t.seed * 1_000_003) + (t.step_count * 7919))
      ~graph:t.graph ~seeds:batch ~fanout ~hops ()
  in
  let sub = block.Sampler.graph in
  let program = t.compiled.Compiler.forward.Hector_core.Plan.program in
  let feature_name =
    List.find_map (function Ir.Node_input { name; _ } -> Some name | _ -> None) program.Ir.decls
    |> Option.get
  in
  let feats = Tensor.gather_rows t.features block.Sampler.origin_node in
  let labels = Array.map (fun v -> t.labels.(v)) block.Sampler.origin_node in
  let session =
    Session.create
      ~config:
        {
          Session.Config.default with
          seed = 3;
          node_inputs = [ (feature_name, feats) ];
          weights = t.weights;
        }
      ~graph:sub t.compiled
  in
  let engine = Session.engine session and exec = Session.exec session in
  let edge_inputs =
    List.length (List.filter (function Ir.Edge_input _ -> true | _ -> false) program.Ir.decls)
  in
  let bytes = float_of_int ((Tensor.numel feats * 4) + (edge_inputs * sub.G.num_edges * 4)) in
  Engine.launch engine
    (Kernel.make ~name:"h2d_block" ~category:Kernel.Copy ~graph_proportional:false
       ~grid_blocks:(max 1 (Tensor.numel feats / 1024))
       ~bytes_coalesced:bytes ());
  Engine.host_sync engine ~us:(bytes /. Device.rtx3090.Device.pcie_bandwidth_gbs /. 1e9 *. 1e6) ();
  let transfer_ms = Engine.elapsed_ms engine in
  (* the loss is the seeds' mean: every other block row only feeds them *)
  let owned = Array.make sub.G.num_nodes false in
  Array.iter (fun v -> owned.(v) <- true) block.Sampler.seed_nodes;
  let seeds = Array.fold_left (fun n o -> if o then n + 1 else n) 0 owned in
  let c = t.compiled in
  let loss =
    Train.loss_and_grads ~owned ~inv_n:(1.0 /. float_of_int seeds) ~exec c ~labels
  in
  Train.sgd_step ~skip:(Train.fused_outs c.Compiler.weight_ops) ~exec ~lr ();
  (loss, Engine.elapsed_ms engine -. transfer_ms)
