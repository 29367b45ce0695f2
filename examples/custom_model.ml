(* Defining a NEW model directly in the Hector inter-operator IR.

   The model below is a "relational gated sum": per-edge messages through a
   typed linear, gated by a per-relation sigmoid-free gate (leaky ReLU of
   an inner product with a typed gate vector), normalized with the reusable
   edge-softmax snippet, plus a residual self term.  It exercises the IR
   surface the way a user would: Listing-1-style loops, reuse of
   edge_softmax, several layout configurations, and gradient checking via
   the generated backward pass.

   Run with:  dune exec examples/custom_model.exe *)

open Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Session = Hector_runtime.Session
module Tensor = Hector_tensor.Tensor
module Gen = Hector_graph.Generator

let gated_sum ~dim () =
  {
    name = "gated_sum";
    decls =
      [
        Node_input { name = "h"; dim };
        Weight_mat { name = "W"; slice = By_etype; rows = dim; cols = dim };
        Weight_vec { name = "gate"; slice = By_etype; dim };
        Weight_mat { name = "W0"; slice = Shared; rows = dim; cols = dim };
      ];
    body =
      [
        (* typed message *)
        For_each
          (Edges, [ Assign (Cur_edge, "msg", Linear (Feature (Src, "h"), Weight ("W", By_etype))) ]);
        (* per-relation gate score *)
        For_each
          ( Edges,
            [
              Assign
                ( Cur_edge,
                  "score",
                  Unop (Leaky_relu, Inner (Weight ("gate", By_etype), Data (Cur_edge, "msg"))) );
            ] );
      ]
      @ Hector_models.Model_defs.edge_softmax ~pre:"score" ~sum:"score_sum" ~out:"alpha"
      @ [
          (* gated aggregation, Listing-1 style node loop *)
          For_each
            ( Nodes,
              [
                Assign (Cur_node, "agg", Const 0.0);
                For_each
                  ( Incoming,
                    [
                      Accumulate
                        ( Cur_node,
                          "agg",
                          Binop (Mul, Data (Cur_edge, "msg"), Data (Cur_edge, "alpha")) );
                    ] );
              ] );
          (* residual self transform *)
          For_each
            (Nodes, [ Assign (Cur_node, "self", Linear (Feature (Cur_node, "h"), Weight ("W0", Shared))) ]);
          For_each
            ( Nodes,
              [
                Assign
                  ( Cur_node,
                    "out",
                    Unop (Relu, Binop (Add, Data (Cur_node, "agg"), Data (Cur_node, "self"))) );
              ] );
        ];
    outputs = [ "out" ];
  }

let () =
  let graph =
    Gen.generate
      {
        Gen.name = "demo";
        num_ntypes = 2;
        num_etypes = 8;
        num_nodes = 300;
        num_edges = 1200;
        compaction_target = 0.4;
        scale = 1.0;
        seed = 9;
      }
  in
  let program = gated_sum ~dim:32 () in
  Format.printf "=== custom model in Hector IR ===@.%a@.@." pp_program program;

  (* the checker reports the produced variables and their shapes *)
  let infos = Hector_core.Check.check_exn (Hector_core.Loop_transform.canonicalize program) in
  print_endline "=== inferred variables ===";
  List.iter
    (fun (i : Hector_core.Check.var_info) ->
      Format.printf "  %-10s %s %a%s@." i.Hector_core.Check.name
        (match i.Hector_core.Check.scope with `Node -> "node" | `Edge -> "edge")
        Hector_core.Check.pp_shape i.Hector_core.Check.shape
        (if i.Hector_core.Check.accumulated then " (accumulated)" else ""))
    infos;
  print_newline ();

  (* compare layouts: vanilla vs compact must agree numerically *)
  let run compact =
    let options = Compiler.options_of_flags ~training:true ~compact ~fusion:false () in
    let compiled = Compiler.compile ~options program in
    let session = Session.create ~config:{ Session.Config.default with seed = 3 } ~graph compiled in
    let out = List.assoc "out" (Session.forward session) in
    Format.printf "%s: %d GEMM steps, out %a@."
      (if compact then "compact" else "vanilla")
      (Plan.gemm_count compiled.Compiler.forward)
      Tensor.pp out;
    (compiled, session, out)
  in
  let _, _, vanilla_out = run false in
  let compiled, session, compact_out = run true in
  Format.printf "layouts agree: %b@.@." (Tensor.approx_equal ~tol:1e-5 vanilla_out compact_out);

  (* training works on the generated backward pass *)
  let labels = Array.init graph.Hector_graph.Hetgraph.num_nodes (fun i -> i mod 32) in
  print_endline "=== training the custom model (generated backward) ===";
  for epoch = 1 to 5 do
    let loss = Session.train_step session ~lr:0.1 ~labels () in
    Printf.printf "  epoch %d: loss %.4f\n" epoch loss
  done;
  ignore compiled
