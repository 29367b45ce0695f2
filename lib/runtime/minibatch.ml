module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Sampler = Hector_graph.Sampler
module Csr = Hector_graph.Csr
module Engine = Hector_gpu.Engine
module Compiler = Hector_core.Compiler

type t = {
  graph : G.t;
  in_csr : Csr.t;  (* Csr.incoming of [graph], cached for every step *)
  labels : int array;
  compiled : Compiler.compiled;
  block : Block.t;  (* engine, executor, persistent weights, staging *)
  fused_weight_names : string list;
  rng : Rng.t;
  seed : int;  (* every per-step sampling seed derives from this *)
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

let create ?(seed = 1) ~graph ~features ~labels compiled =
  if compiled.Compiler.backward = None then
    invalid_arg "Minibatch.create: model must be compiled with training = true";
  if Array.length labels <> graph.G.num_nodes then
    invalid_arg "Minibatch.create: one label per parent node required";
  let inputs =
    Block.inputs ~caller:"Minibatch.create" ~features ~graph
      compiled.Compiler.forward.Hector_core.Plan.program
  in
  {
    graph;
    in_csr = Csr.incoming graph;
    labels;
    compiled;
    block = Block.create ~features ~origin:"minibatch" ~seed ~graph inputs compiled;
    fused_weight_names = Train.fused_outs compiled.Compiler.weight_ops;
    rng = Rng.create (seed + 17);
    seed;
    step_count = 0;
  }

let weights t = Block.weights t.block
let engine t = Block.engine t.block

let step t ?(lr = 0.05) ?(fanout = 8) ?(hops = 2) ~batch () =
  (* a step counts once it has sampled: a batch the sampler rejects moves
     no later step's seed *)
  let sub =
    Sampler.sample
      ~seed:((t.seed * 1_000_003) + ((t.step_count + 1) * 7919))
      ~csr:t.in_csr ~graph:t.graph ~seeds:batch ~fanout ~hops ()
  in
  t.step_count <- t.step_count + 1;
  let block = sub.Sampler.graph in
  let engine = Block.engine t.block in
  (* every step reads its own clock from zero, as on a fresh device *)
  Engine.reset_clock engine;
  let exec = Block.stage t.block sub in
  let transfer_ms = Engine.elapsed_ms engine in
  (* the loss is the batch's: its seeds' rows, each labelled by its
     parent; every other block row only feeds them *)
  let owned = Array.make block.G.num_nodes false in
  Array.iter (fun v -> owned.(v) <- true) sub.Sampler.seed_nodes;
  let seeds = Array.fold_left (fun n o -> if o then n + 1 else n) 0 owned in
  let loss =
    Train.loss_and_grads ~owned ~inv_n:(1.0 /. float_of_int seeds) ~label_rows:sub.Sampler.origin_node
      ~exec t.compiled ~labels:t.labels
  in
  Train.sgd_step ~skip:t.fused_weight_names ~exec ~lr ();
  {
    loss;
    block_nodes = block.G.num_nodes;
    block_edges = block.G.num_edges;
    sample_ms = Block.sample_cost_ms ~nodes:block.G.num_nodes ~edges:block.G.num_edges;
    transfer_ms;
    compute_ms = Engine.elapsed_ms engine -. transfer_ms;
  }

let train_epochs t ?(lr = 0.05) ?(fanout = 8) ?(hops = 2) ?(batch_size = 64) ~epochs () =
  if batch_size < 1 then
    invalid_arg (Printf.sprintf "Minibatch.train_epochs: batch_size must be >= 1 (got %d)" batch_size);
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
