(* Tests for the DGL-style programming frontend (§3.1.4). *)

module T = Hector_tensor.Tensor
module F = Hector_core.Frontend
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Gen = Hector_graph.Generator

let seeded seed = { Session.Config.default with seed }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph =
  lazy
    (Gen.generate
       {
         Gen.name = "t";
         num_ntypes = 3;
         num_etypes = 5;
         num_nodes = 60;
         num_edges = 220;
         compaction_target = 0.5;
         scale = 1.0;
         seed = 13;
       })

(* RGAT written through the frontend combinators *)
let frontend_rgat dim =
  F.(
    model "rgat"
      ~params:[ etype_matrix "W" dim dim; etype_vector "att" (2 * dim) ]
      ~inputs:[ node_feature "h" dim ]
      (fun m ->
        apply_edges m "zi" (fun e -> typed_linear (src_h e "h") "W");
        apply_edges m "zj" (fun e -> typed_linear (dst_h e "h") "W");
        apply_edges m "attn_pre" (fun e ->
            leaky_relu (inner (etype_param e "att") (concat (edge_v e "zi") (edge_v e "zj"))));
        edge_softmax m ~src:"attn_pre" ~out:"attn";
        update_all m ~out:"out" (fun e -> edge_v e "zi" *@ edge_v e "attn")))

let test_frontend_builds_valid_program () =
  let p = frontend_rgat 8 in
  check_bool "named" true (String.equal p.Ir.name "rgat");
  check_int "decl count" 3 (List.length p.Ir.decls);
  (* the builder output passes the checker after canonicalization *)
  match Hector_core.Check.check (Hector_core.Loop_transform.canonicalize p) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_frontend_rgat_matches_handwritten () =
  let g = Lazy.force graph in
  let run program =
    let compiled =
      Compiler.compile ~options:(Compiler.options_of_flags ~compact:true ~fusion:true ()) program
    in
    let session = Session.create ~config:(seeded 9) ~graph:g compiled in
    List.assoc "out" (Session.forward session)
  in
  let a = run (frontend_rgat 8) in
  (* the handwritten IR uses the same variable names and weight shapes, so
     identical seeds give identical parameters *)
  let b = run (Hector_models.Model_defs.rgat ~in_dim:8 ~out_dim:8 ()) in
  check_bool "frontend == handwritten" true (T.approx_equal ~tol:1e-6 a b)

let test_frontend_fusion_applies () =
  (* the attention pattern built via the frontend still triggers
     linear-operator fusion *)
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~compact:false ~fusion:true ())
      (frontend_rgat 8)
  in
  check_int "one rewrite" 1 compiled.Compiler.fusion_rewrites

let test_frontend_node_scope () =
  let g = Lazy.force graph in
  let p =
    F.(
      model "node_model"
        ~params:[ ntype_matrix "K" 6 4 ]
        ~inputs:[ node_feature "h" 6 ]
        (fun m ->
          apply_nodes m "k" (fun n -> typed_linear (node_h n "h") "K");
          apply_nodes m "out" (fun n -> relu (node_v n "k"))))
  in
  let compiled = Compiler.compile p in
  let session = Session.create ~config:(seeded 9) ~graph:g compiled in
  let out = List.assoc "out" (Session.forward session) in
  check_int "rows" g.Hector_graph.Hetgraph.num_nodes (T.rows out);
  check_int "cols" 4 (T.cols out)

let test_frontend_rejects_invalid () =
  (* node accessor in an edge message: the checker refuses *)
  check_bool "raises" true
    (try
       ignore
         (F.(
            model "bad"
              ~params:[ etype_matrix "W" 4 4 ]
              ~inputs:[ node_feature "h" 4 ]
              (fun m -> apply_edges m "x" (fun e -> inner (src_h e "h") (dst_h e "nope")))));
       false
     with Invalid_argument _ -> true)

let test_frontend_trains () =
  let g = Lazy.force graph in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
      (frontend_rgat 6)
  in
  let session = Session.create ~config:(seeded 9) ~graph:g compiled in
  let labels = Array.init g.Hector_graph.Hetgraph.num_nodes (fun v -> v mod 6) in
  let first = Session.train_step session ~lr:0.4 ~labels () in
  let last = ref first in
  for _ = 1 to 9 do
    last := Session.train_step session ~lr:0.4 ~labels ()
  done;
  check_bool "loss decreases" true (!last < first)

let suite =
  [
    Alcotest.test_case "builds valid program" `Quick test_frontend_builds_valid_program;
    Alcotest.test_case "RGAT matches handwritten IR" `Quick test_frontend_rgat_matches_handwritten;
    Alcotest.test_case "fusion applies to frontend output" `Quick test_frontend_fusion_applies;
    Alcotest.test_case "node scope combinators" `Quick test_frontend_node_scope;
    Alcotest.test_case "rejects invalid programs" `Quick test_frontend_rejects_invalid;
    Alcotest.test_case "frontend model trains" `Quick test_frontend_trains;
  ]
