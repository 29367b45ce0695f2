(* Tests for the model programs: structure, the two-layer extension, and a
   differential property test compiling randomly generated IR programs
   under every layout/optimization configuration. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Models = Hector_models.Model_defs
module Reference = Hector_models.Reference

let seeded seed = { Session.Config.default with seed }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_graph ?(seed = 3) () =
  Gen.generate
    {
      Gen.name = "t";
      num_ntypes = 3;
      num_etypes = 5;
      num_nodes = 50;
      num_edges = 180;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let test_model_shapes () =
  List.iter
    (fun (name, build) ->
      let p = build () in
      check_bool (name ^ " named") true (String.equal p.Ir.name name);
      check_bool (name ^ " has outputs") true (p.Ir.outputs = [ "out" ]))
    Models.all

let test_edge_softmax_reusable () =
  (* the snippet produces the three stages of Listing 1 lines 1-9 *)
  match Models.edge_softmax ~pre:"s" ~sum:"z" ~out:"a" with
  | [ Ir.For_each (Ir.Edges, _); Ir.For_each (Ir.Nodes, _); Ir.For_each (Ir.Edges, _) ] -> ()
  | _ -> Alcotest.fail "unexpected edge_softmax structure"

let test_by_name_unknown () =
  check_bool "raises" true
    (try
       ignore (Models.by_name "gcn" ());
       false
     with Invalid_argument _ -> true)

let test_two_layer_matches_reference () =
  let graph = test_graph () in
  List.iter
    (fun (compact, fusion) ->
      let program = Models.rgcn_two_layer ~in_dim:10 ~hidden_dim:8 ~out_dim:6 () in
      let options = Compiler.options_of_flags ~compact ~fusion () in
      let compiled = Compiler.compile ~options program in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let out = List.assoc "out" (Session.forward session) in
      let env = (Session.exec session).Exec.env in
      let tensor n = (Env.find env n).Env.tensor in
      let weight n = List.assoc n (Session.weights session) in
      let expected =
        Reference.rgcn_two_layer ~graph ~h:(tensor "h") ~norm:(tensor "norm") ~w1:(weight "W1")
          ~w01:(weight "W01") ~w2:(weight "W2") ~w02:(weight "W02")
      in
      check_bool
        (Printf.sprintf "two-layer compact=%b fusion=%b" compact fusion)
        true
        (T.approx_equal ~tol:1e-4 expected out))
    [ (false, false); (true, false); (true, true) ]

let test_two_layer_trains () =
  let graph = test_graph ~seed:9 () in
  let program = Models.rgcn_two_layer ~in_dim:10 ~hidden_dim:8 ~out_dim:4 () in
  let compiled =
    Compiler.compile ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:false ())
      program
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let rng = Rng.create 4 in
  let labels = Array.init graph.G.num_nodes (fun _ -> Rng.int rng 4) in
  let first = Session.train_step session ~lr:0.3 ~labels () in
  let last = ref first in
  for _ = 1 to 11 do
    last := Session.train_step session ~lr:0.3 ~labels ()
  done;
  check_bool
    (Printf.sprintf "two-layer loss decreases (%.3f -> %.3f)" first !last)
    true (!last < first);
  (* all six weight stacks received gradients through both layers *)
  check_int "four parameter stacks" 4 (List.length (Session.weights session))

let test_multihead_matches_reference () =
  let graph = test_graph ~seed:29 () in
  List.iter
    (fun (heads, compact, fusion) ->
      let program = Models.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads () in
      let options = Compiler.options_of_flags ~compact ~fusion () in
      let compiled = Compiler.compile ~options program in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let out = List.assoc "out" (Session.forward session) in
      let env = (Session.exec session).Exec.env in
      let h = (Env.find env "h").Env.tensor in
      let weight n = List.assoc n (Session.weights session) in
      let head_params =
        List.init heads (fun i ->
            (weight (Printf.sprintf "W%d" i), weight (Printf.sprintf "att%d" i)))
      in
      let expected = Reference.rgat_multihead ~graph ~h ~heads:head_params in
      check_bool
        (Printf.sprintf "%d heads compact=%b fusion=%b" heads compact fusion)
        true
        (T.approx_equal ~tol:1e-4 expected out))
    [ (1, false, false); (2, false, false); (4, false, false); (2, true, false); (2, true, true) ]

let test_multihead_fusion_per_head () =
  (* every head's attention triggers its own linear-operator rewrite *)
  let program = Models.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads:4 () in
  let compiled =
    Compiler.compile ~options:(Compiler.options_of_flags ~compact:false ~fusion:true ()) program
  in
  check_int "four rewrites" 4 compiled.Compiler.fusion_rewrites

let test_multihead_trains () =
  let graph = test_graph ~seed:37 () in
  let program = Models.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads:2 () in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:true ())
      program
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let labels = Array.init graph.G.num_nodes (fun v -> v mod 8) in
  let first = Session.train_step session ~lr:0.4 ~labels () in
  let last = ref first in
  for _ = 1 to 9 do
    last := Session.train_step session ~lr:0.4 ~labels ()
  done;
  check_bool "loss decreases" true (!last < first)

let test_multihead_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "heads must divide dim" true
    (raises (fun () -> Models.rgat_multihead ~in_dim:8 ~out_dim:8 ~heads:3 ()));
  check_bool "heads >= 1" true (raises (fun () -> Models.rgat_multihead ~heads:0 ()))

let test_hgt_multihead_matches_reference () =
  let graph = test_graph ~seed:31 () in
  List.iter
    (fun (heads, compact, fusion) ->
      let program = Models.hgt_multihead ~in_dim:8 ~out_dim:8 ~heads () in
      let options = Compiler.options_of_flags ~compact ~fusion () in
      let compiled = Compiler.compile ~options program in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let out = List.assoc "out" (Session.forward session) in
      let env = (Session.exec session).Exec.env in
      let h = (Env.find env "h").Env.tensor in
      let weight n = List.assoc n (Session.weights session) in
      let head_params =
        List.init heads (fun i ->
            ( weight (Printf.sprintf "K%d" i),
              weight (Printf.sprintf "Q%d" i),
              weight (Printf.sprintf "V%d" i),
              weight (Printf.sprintf "Wa%d" i),
              weight (Printf.sprintf "Wm%d" i) ))
      in
      let expected = Reference.hgt_multihead ~graph ~h ~heads:head_params in
      check_bool
        (Printf.sprintf "hgt %d heads compact=%b fusion=%b" heads compact fusion)
        true
        (T.approx_equal ~tol:1e-4 expected out))
    [ (2, false, false); (2, true, true); (4, true, false) ]

let test_hgt_multihead_fusion_per_head () =
  (* each head carries two fusable typed-linear chains (K·Wa and V·Wm) *)
  let program = Models.hgt_multihead ~in_dim:8 ~out_dim:8 ~heads:2 () in
  let compiled =
    Compiler.compile ~options:(Compiler.options_of_flags ~compact:false ~fusion:true ()) program
  in
  check_int "four chain rewrites" 4 compiled.Compiler.fusion_rewrites

let test_hgt_multihead_trains () =
  let graph = test_graph ~seed:47 () in
  let program = Models.hgt_multihead ~in_dim:8 ~out_dim:8 ~heads:2 () in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:false ())
      program
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let labels = Array.init graph.G.num_nodes (fun v -> v mod 8) in
  let first = Session.train_step session ~lr:0.4 ~labels () in
  let last = ref first in
  for _ = 1 to 9 do
    last := Session.train_step session ~lr:0.4 ~labels ()
  done;
  check_bool "loss decreases" true (!last < first)

(* --- differential property test: random programs agree across configs --- *)

(* A restricted random program generator that produces checkable programs
   by construction: a typed edge message from a random endpoint, optional
   scalar gating (inner product with a typed vector, optionally through
   softmax), destination aggregation, optional self path. *)
let random_program rng =
  let dim = 2 + Rng.int rng 6 in
  let side = if Rng.int rng 2 = 0 then Ir.Src else Ir.Dst in
  let gate = Rng.int rng 3 (* 0: none, 1: raw gate, 2: softmax gate *) in
  let self = Rng.int rng 2 = 0 in
  let act = Rng.int rng 2 = 0 in
  (* optionally project the feature per node type first: the chained typed
     linear that F2 linear fusion collapses *)
  let node_pre = Rng.int rng 2 = 0 in
  let unop = Rng.choose rng [| Ir.Exp; Ir.Leaky_relu; Ir.Relu; Ir.Neg |] in
  let msg_input = if node_pre then Ir.Data (side, "k") else Ir.Feature (side, "h") in
  let pre_stmts =
    if node_pre then
      [
        Ir.For_each
          ( Ir.Nodes,
            [
              Ir.Assign
                (Ir.Cur_node, "k", Ir.Linear (Ir.Feature (Ir.Cur_node, "h"), Ir.Weight ("K", Ir.By_ntype)));
            ] );
      ]
    else []
  in
  let msg = Ir.Assign (Ir.Cur_edge, "msg", Ir.Linear (msg_input, Ir.Weight ("W", Ir.By_etype))) in
  let gate_stmts, msg_expr =
    match gate with
    | 0 -> ([], Ir.Data (Ir.Cur_edge, "msg"))
    | 1 ->
        ( [
            Ir.For_each
              ( Ir.Edges,
                [
                  Ir.Assign
                    ( Ir.Cur_edge,
                      "g",
                      Ir.Unop (unop, Ir.Inner (Ir.Weight ("v", Ir.By_etype), Ir.Data (Ir.Cur_edge, "msg")))
                    );
                ] );
          ],
          Ir.Binop (Ir.Mul, Ir.Data (Ir.Cur_edge, "msg"), Ir.Data (Ir.Cur_edge, "g")) )
    | _ ->
        ( Ir.For_each
            ( Ir.Edges,
              [
                Ir.Assign
                  ( Ir.Cur_edge,
                    "pre",
                    Ir.Inner (Ir.Weight ("v", Ir.By_etype), Ir.Data (Ir.Cur_edge, "msg")) );
              ] )
          :: Models.edge_softmax ~pre:"pre" ~sum:"z" ~out:"alpha",
          Ir.Binop (Ir.Mul, Ir.Data (Ir.Cur_edge, "msg"), Ir.Data (Ir.Cur_edge, "alpha")) )
  in
  let agg =
    Ir.For_each
      (Ir.Nodes, [ Ir.For_each (Ir.Incoming, [ Ir.Accumulate (Ir.Cur_node, "agg", msg_expr) ]) ])
  in
  let out_expr =
    let base = Ir.Data (Ir.Cur_node, "agg") in
    let base =
      if self then Ir.Binop (Ir.Add, base, Ir.Data (Ir.Cur_node, "selfp")) else base
    in
    if act then Ir.Unop (Ir.Relu, base) else base
  in
  let self_stmts =
    if self then
      [
        Ir.For_each
          ( Ir.Nodes,
            [ Ir.Assign (Ir.Cur_node, "selfp", Ir.Linear (Ir.Feature (Ir.Cur_node, "h"), Ir.Weight ("W0", Ir.Shared))) ]
          );
      ]
    else []
  in
  {
    Ir.name = "random";
    decls =
      [
        Ir.Node_input { name = "h"; dim };
        Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = dim; cols = dim };
        Ir.Weight_vec { name = "v"; slice = Ir.By_etype; dim };
        Ir.Weight_mat { name = "W0"; slice = Ir.Shared; rows = dim; cols = dim };
        Ir.Weight_mat { name = "K"; slice = Ir.By_ntype; rows = dim; cols = dim };
      ];
    body = pre_stmts @ (Ir.For_each (Ir.Edges, [ msg ]) :: gate_stmts) @ self_stmts @ [ agg ];
    outputs = [];
  }
  |> fun p ->
  { p with Ir.body = p.Ir.body @ [ Ir.For_each (Ir.Nodes, [ Ir.Assign (Ir.Cur_node, "out", out_expr) ]) ];
           Ir.outputs = [ "out" ] }

let prop_random_programs_agree =
  QCheck.Test.make ~name:"random programs agree across U/C/F/C+F (fwd + grads)" ~count:25
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Rng.create seed in
      let program = random_program rng in
      let graph = test_graph ~seed:(seed mod 17) () in
      let run (compact, fusion) =
        let options = Compiler.options_of_flags ~training:true ~compact ~fusion () in
        let compiled = Compiler.compile ~options program in
        let session = Session.create ~config:(seeded 5) ~graph compiled in
        let out = List.assoc "out" (Session.forward session) in
        let labels = Array.init graph.G.num_nodes (fun v -> v mod Session.output_dim session) in
        Session.reset_clock session;
        let _loss = Session.loss_and_grads session ~labels in
        let grads =
          List.filter
            (fun (n, _) -> not (String.length n > 1 && String.sub n 0 2 = "__"))
            (Session.weight_grads session)
        in
        (out, List.sort compare grads)
      in
      let base_out, base_grads = run (false, false) in
      List.for_all
        (fun cfg ->
          let out, grads = run cfg in
          T.approx_equal ~tol:1e-5 base_out out
          && List.for_all2
               (fun (n1, g1) (n2, g2) -> String.equal n1 n2 && T.approx_equal ~tol:1e-4 g1 g2)
               base_grads grads)
        [ (true, false); (false, true); (true, true) ])

let suite =
  [
    Alcotest.test_case "model shapes" `Quick test_model_shapes;
    Alcotest.test_case "edge_softmax reusable snippet" `Quick test_edge_softmax_reusable;
    Alcotest.test_case "by_name rejects unknown" `Quick test_by_name_unknown;
    Alcotest.test_case "two-layer RGCN matches reference" `Quick test_two_layer_matches_reference;
    Alcotest.test_case "two-layer RGCN trains" `Quick test_two_layer_trains;
    Alcotest.test_case "multi-head RGAT matches reference" `Quick test_multihead_matches_reference;
    Alcotest.test_case "multi-head fusion per head" `Quick test_multihead_fusion_per_head;
    Alcotest.test_case "multi-head RGAT trains" `Quick test_multihead_trains;
    Alcotest.test_case "multi-head validation" `Quick test_multihead_validation;
    Alcotest.test_case "multi-head HGT matches reference" `Quick test_hgt_multihead_matches_reference;
    Alcotest.test_case "multi-head HGT fusion per head" `Quick test_hgt_multihead_fusion_per_head;
    Alcotest.test_case "multi-head HGT trains" `Quick test_hgt_multihead_trains;
    QCheck_alcotest.to_alcotest prop_random_programs_agree;
  ]
