(* Entity classification with RGCN on a synthetic AIFB-like graph —
   the workload the RGCN paper (and Hector's evaluation) is built around.

   We plant a learnable signal: each node's class is correlated with its
   node type, features are noisy indicators, and the model must pick the
   signal up through typed message passing.  Training uses Hector's
   generated backward pass and the simulated RTX 3090 clock.

   Run with:  dune exec examples/train_rgcn.exe *)

module Gen = Hector_graph.Generator
module G = Hector_graph.Hetgraph
module Rng = Hector_tensor.Rng
module Tensor = Hector_tensor.Tensor
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Engine = Hector_gpu.Engine

let num_classes = 4

let () =
  let rng = Rng.create 2024 in
  let graph =
    Gen.generate
      {
        Gen.name = "aifb-like";
        num_ntypes = 4;
        num_etypes = 12;
        num_nodes = 600;
        num_edges = 2400;
        compaction_target = 0.6;
        scale = 1.0;
        seed = 8;
      }
  in
  (* labels correlated with node type, with 15% label noise *)
  let labels =
    Array.init graph.G.num_nodes (fun v ->
        if Rng.uniform rng < 0.15 then Rng.int rng num_classes
        else graph.G.node_type.(v) mod num_classes)
  in
  (* noisy one-hot-ish features over 16 dims *)
  let in_dim = 16 in
  let h =
    Tensor.init [| graph.G.num_nodes; in_dim |] (fun idx ->
        let v = idx.(0) and j = idx.(1) in
        let signal = if j = labels.(v) then 1.0 else 0.0 in
        signal +. (0.5 *. Rng.gaussian rng))
  in
  let program = Hector_models.Model_defs.rgcn ~in_dim ~out_dim:num_classes () in
  let options = Compiler.options_of_flags ~training:true ~compact:true ~fusion:false () in
  let compiled = Compiler.compile ~options program in
  let session =
    Session.create
      ~config:{ Session.Config.default with seed = 5; node_inputs = [ ("h", h) ] }
      ~graph compiled
  in

  let accuracy () =
    let out = List.assoc "out" (Session.forward session) in
    let pred = Tensor.argmax_rows out in
    let correct = ref 0 in
    Array.iteri (fun v p -> if p = labels.(v) then incr correct) pred;
    float_of_int !correct /. float_of_int graph.G.num_nodes
  in

  Printf.printf "RGCN entity classification: %d nodes, %d edges, %d classes\n" graph.G.num_nodes
    graph.G.num_edges num_classes;
  Printf.printf "initial accuracy: %.1f%%\n\n" (100.0 *. accuracy ());
  Printf.printf "%5s %10s %10s %14s\n" "epoch" "loss" "accuracy" "sim. ms/epoch";
  let epochs = 30 in
  for epoch = 1 to epochs do
    Session.reset_clock session;
    let loss = Session.train_step session ~lr:0.3 ~labels () in
    if epoch mod 5 = 0 || epoch = 1 then
      Printf.printf "%5d %10.4f %9.1f%% %14.3f\n" epoch loss
        (100.0 *. accuracy ())
        (Engine.elapsed_ms (Session.engine session))
  done;
  let final = accuracy () in
  Printf.printf "\nfinal accuracy: %.1f%% %s\n" (100.0 *. final)
    (if final > 0.7 then "(signal recovered through typed message passing)" else "")
