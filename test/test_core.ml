(* Tests for the Hector core: IR, checker, transforms, fusion,
   materialization, lowering, autodiff, codegen. *)

module Ir = Hector_core.Inter_ir
module Check = Hector_core.Check
module Layout = Hector_core.Layout
module Lt = Hector_core.Loop_transform
module Lf = Hector_core.Linear_fusion
module Mat = Hector_core.Materialization
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Plan = Hector_core.Plan
module Lowering = Hector_core.Lowering
module Autodiff = Hector_core.Autodiff
module Codegen = Hector_core.Codegen
module Compiler = Hector_core.Compiler
module Traversal_passes = Hector_core.Traversal_passes
module Models = Hector_models.Model_defs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* substring search for generated-code assertions *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let compile ?training ~compact ~fusion p =
  Compiler.compile ~options:(Compiler.options_of_flags ?training ~compact ~fusion ()) p

(* a minimal valid program for checker tests *)
let tiny_program body =
  {
    Ir.name = "tiny";
    decls =
      [
        Ir.Node_input { name = "h"; dim = 4 };
        Ir.Edge_input { name = "s"; dim = 1 };
        Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = 4; cols = 3 };
        Ir.Weight_vec { name = "a"; slice = Ir.By_etype; dim = 3 };
      ];
    body;
    outputs = [];
  }

(* --- checker --- *)

let test_check_valid () =
  let p =
    tiny_program
      [
        Ir.For_each
          (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "z", Ir.Linear (Ir.Feature (Ir.Src, "h"), Ir.Weight ("W", Ir.By_etype))) ]);
      ]
  in
  match Check.check p with
  | Ok [ info ] ->
      check_string "name" "z" info.Check.name;
      check_int "dim" 3 (Check.shape_dim info.Check.shape);
      check_bool "edge scope" true (info.Check.scope = `Edge)
  | Ok _ -> Alcotest.fail "expected one var"
  | Error e -> Alcotest.fail e

let expect_error p =
  match Check.check p with
  | Ok _ -> Alcotest.fail "expected checker rejection"
  | Error _ -> ()

let test_check_rejects_bad_entity () =
  expect_error
    (tiny_program
       [ Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Feature (Ir.Cur_node, "h")) ]) ])

let test_check_rejects_undeclared () =
  expect_error
    (tiny_program
       [ Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Feature (Ir.Src, "nope")) ]) ])

let test_check_rejects_read_before_def () =
  expect_error
    (tiny_program
       [ Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Data (Ir.Cur_edge, "y")) ]) ])

let test_check_rejects_dim_mismatch () =
  expect_error
    (tiny_program
       [
         Ir.For_each
           ( Ir.Edges,
             [
               Ir.Assign
                 ( Ir.Cur_edge,
                   "x",
                   Ir.Inner (Ir.Weight ("a", Ir.By_etype), Ir.Feature (Ir.Src, "h")) );
             ] );
       ])

let test_check_rejects_wrong_slice_context () =
  expect_error
    (tiny_program
       [
         Ir.For_each
           ( Ir.Nodes,
             [
               Ir.Assign
                 (Ir.Cur_node, "x", Ir.Linear (Ir.Feature (Ir.Cur_node, "h"), Ir.Weight ("W", Ir.By_etype)));
             ] );
       ])

let test_check_rejects_assign_to_dst () =
  expect_error
    (tiny_program
       [ Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Dst, "x", Ir.Const 1.0) ]) ])

let test_check_rejects_bad_output () =
  expect_error { (tiny_program []) with Ir.outputs = [ "missing" ] }

let test_check_models () =
  List.iter
    (fun (name, build) ->
      let p = Lt.canonicalize (build ()) in
      match Check.check p with
      | Ok infos -> check_bool (name ^ " has vars") true (List.length infos > 3)
      | Error e -> Alcotest.fail e)
    Models.all

(* The shared width rule ([Check.width], behind backward generation and
   launch pricing) agrees with the validator: the width of every
   statement's defining expression is the written variable's inferred
   shape, [Sc] told from [Vec 1].  Over the shipped models as the
   compiler checks them (canonicalized, then also linear-fused) and the
   backward program of each. *)
let test_width_agrees_with_check () =
  let agree label p =
    let infos = Check.check_exn p in
    let shape v =
      match List.find_opt (fun (i : Check.var_info) -> (i.Check.scope, i.Check.name) = v) infos with
      | Some i -> i.Check.shape
      | None -> Alcotest.failf "%s: %S has no inferred shape" label (snd v)
    in
    let read ent n =
      match ent, Ir.find_decl p n with
      | _, Some d -> Check.shape_of_decl d
      | _, None -> shape (Ir.scope_of_target ent, n)
    in
    let pp = Format.asprintf "%a" Check.pp_shape in
    let checked = ref 0 in
    List.iter
      (function
        | Ir.Assign (ent, n, e) | Ir.Accumulate (ent, n, e) ->
            incr checked;
            Alcotest.(check string)
              (Printf.sprintf "%s: width of %S's definition" label n)
              (pp (shape (Ir.scope_of_target ent, n)))
              (pp (Check.width p ~read e))
        | Ir.Grad_weight _ | Ir.For_each _ -> ())
      (Ir.leaves p.Ir.body);
    check_bool (label ^ " has statements") true (!checked > 0)
  in
  List.iter
    (fun (name, build) ->
      let canonical = Lt.canonicalize (build ()) in
      let fused = (Lf.run canonical).Lf.program in
      agree name canonical;
      agree (name ^ " fused") fused;
      agree (name ^ " backward") (Autodiff.backward canonical).Autodiff.program;
      agree (name ^ " fused backward") (Autodiff.backward fused).Autodiff.program)
    (Models.all
    @ [
        ("rgat_2head", fun () -> Models.rgat_multihead ~heads:2 ());
        ("hgt_2head", fun () -> Models.hgt_multihead ~heads:2 ());
        ("rgcn_2layer", fun () -> Models.rgcn_two_layer ());
      ])

(* --- loop transforms --- *)

let test_edgeify () =
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Nodes,
            [
              Ir.For_each
                (Ir.Incoming, [ Ir.Accumulate (Ir.Cur_node, "acc", Ir.Feature (Ir.Cur_edge, "s")) ]);
            ] );
      ]
  in
  match (Lt.edgeify p).Ir.body with
  | [ Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Dst, "acc", Ir.Feature (Ir.Cur_edge, "s")) ]) ] ->
      ()
  | _ -> Alcotest.fail "edgeify did not produce the expected edge loop"

let test_edgeify_outgoing () =
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Nodes,
            [
              Ir.For_each
                (Ir.Outgoing, [ Ir.Accumulate (Ir.Cur_node, "acc", Ir.Feature (Ir.Cur_edge, "s")) ]);
            ] );
      ]
  in
  match (Lt.edgeify p).Ir.body with
  | [ Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Src, "acc", _) ]) ] -> ()
  | _ -> Alcotest.fail "outgoing should accumulate through e.src"

let test_edgeify_preserves_order () =
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Nodes,
            [
              Ir.Assign (Ir.Cur_node, "a", Ir.Const 1.0);
              Ir.For_each (Ir.Incoming, [ Ir.Accumulate (Ir.Cur_node, "b", Ir.Feature (Ir.Cur_edge, "s")) ]);
              Ir.Assign (Ir.Cur_node, "c", Ir.Const 2.0);
            ] );
      ]
  in
  match (Lt.edgeify p).Ir.body with
  | [ Ir.For_each (Ir.Nodes, [ Ir.Assign (_, "a", _) ]);
      Ir.For_each (Ir.Edges, _);
      Ir.For_each (Ir.Nodes, [ Ir.Assign (_, "c", _) ]) ] ->
      ()
  | _ -> Alcotest.fail "statement order not preserved"

let test_nodeify_roundtrip () =
  let edge_loop =
    Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Dst, "acc", Ir.Feature (Ir.Cur_edge, "s")) ])
  in
  let p = tiny_program [ edge_loop ] in
  match (Lt.nodeify p).Ir.body with
  | [ Ir.For_each (Ir.Nodes, [ Ir.For_each (Ir.Incoming, [ Ir.Accumulate (Ir.Cur_node, "acc", _) ]) ]) ]
    ->
      check_bool "roundtrip" true ((Lt.edgeify (Lt.nodeify p)).Ir.body = [ edge_loop ])
  | _ -> Alcotest.fail "nodeify failed"

let test_nodeify_converts_mixed_dst_loops () =
  (* per-edge assigns plus destination accumulation are legal in the nest *)
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "x", Ir.Const 1.0);
              Ir.Accumulate (Ir.Dst, "acc", Ir.Data (Ir.Cur_edge, "x"));
            ] );
      ]
  in
  (match (Lt.nodeify p).Ir.body with
  | [ Ir.For_each (Ir.Nodes, [ Ir.For_each (Ir.Incoming, _) ]) ] -> ()
  | _ -> Alcotest.fail "mixed dst loop should nodeify");
  (* source scatters cannot become an incoming nest *)
  let p2 =
    tiny_program
      [ Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Src, "acc", Ir.Feature (Ir.Cur_edge, "s")) ]) ]
  in
  check_bool "src scatter unchanged" true ((Lt.nodeify p2).Ir.body = p2.Ir.body)

let test_drop_zero_init () =
  let p =
    tiny_program
      [
        Ir.For_each (Ir.Nodes, [ Ir.Assign (Ir.Cur_node, "acc", Ir.Const 0.0) ]);
        Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Dst, "acc", Ir.Feature (Ir.Cur_edge, "s")) ]);
      ]
  in
  match (Lt.drop_dead_zero_init p).Ir.body with
  | [ Ir.For_each (Ir.Edges, _) ] -> ()
  | _ -> Alcotest.fail "zero-init loop should be removed"

let test_fuse_adjacent_legal () =
  let p =
    tiny_program
      [
        Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Const 1.0) ]);
        Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "y", Ir.Data (Ir.Cur_edge, "x")) ]);
      ]
  in
  check_int "fused to one loop" 1 (List.length (Lt.fuse_adjacent p).Ir.body)

let test_fuse_adjacent_blocked_by_scatter () =
  (* edge softmax shape: the normalization loop reads a node accumulation
     produced by the previous loop -> must NOT fuse *)
  let p =
    tiny_program
      [
        Ir.For_each (Ir.Edges, [ Ir.Accumulate (Ir.Dst, "sum", Ir.Feature (Ir.Cur_edge, "s")) ]);
        Ir.For_each
          ( Ir.Edges,
            [ Ir.Assign (Ir.Cur_edge, "y", Ir.Binop (Ir.Div, Ir.Feature (Ir.Cur_edge, "s"), Ir.Data (Ir.Dst, "sum"))) ] );
      ]
  in
  check_int "not fused" 2 (List.length (Lt.fuse_adjacent p).Ir.body)

(* --- linear fusion --- *)

let test_rgat_fusion_removes_zj () =
  let r = Lf.run (Lt.canonicalize (Models.rgat ())) in
  check_int "one rewrite" 1 r.Lf.rewrites;
  check_int "two weight products" 2 (List.length r.Lf.weight_ops);
  let defs = Ir.defs r.Lf.program in
  check_bool "zj eliminated" false (List.mem (`Edge, "zj") defs);
  check_bool "zi kept (used as message)" true (List.mem (`Edge, "zi") defs)

let test_hgt_fusion_collapses_chains () =
  let r = Lf.run (Lt.canonicalize (Models.hgt ())) in
  check_int "two rewrites" 2 r.Lf.rewrites;
  let defs = Ir.defs r.Lf.program in
  check_bool "k eliminated" false (List.mem (`Node, "k") defs);
  check_bool "v eliminated" false (List.mem (`Node, "v") defs);
  check_bool "q kept" true (List.mem (`Node, "q") defs);
  (* the products are between weights, sliced by relation *)
  List.iter
    (function
      | Lf.Mat_mat { left; right; _ } ->
          check_bool "left is node weight" true (List.mem left [ "K"; "V" ]);
          check_bool "right is edge weight" true (List.mem right [ "Wa"; "Wm" ])
      | Lf.Mat_vec _ -> Alcotest.fail "expected matrix-matrix products")
    r.Lf.weight_ops

let test_rgcn_fusion_noop () =
  let r = Lf.run (Lt.canonicalize (Models.rgcn ())) in
  check_int "no rewrites" 0 r.Lf.rewrites;
  check_int "no products" 0 (List.length r.Lf.weight_ops)

let test_eliminate_dead () =
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "unused", Ir.Const 1.0);
              Ir.Assign (Ir.Cur_edge, "used", Ir.Const 2.0);
              Ir.Assign (Ir.Cur_edge, "y", Ir.Data (Ir.Cur_edge, "used"));
            ] );
      ]
  in
  let p' = Lf.eliminate_dead { p with Ir.outputs = [] } in
  let defs = Ir.defs p' in
  check_bool "unused dropped" false (List.mem (`Edge, "unused") defs);
  (* y itself is unused, and removing it orphans "used": the fixpoint
     removes the whole dead chain *)
  check_bool "fixpoint removes y" false (List.mem (`Edge, "y") defs);
  check_bool "fixpoint removes orphaned used" false (List.mem (`Edge, "used") defs);
  (* with y kept alive as an output, its dependency survives *)
  let kept = Lf.eliminate_dead { p with Ir.outputs = [] } in
  ignore kept;
  let p2 =
    tiny_program
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "used", Ir.Const 2.0);
              Ir.Accumulate (Ir.Dst, "out", Ir.Data (Ir.Cur_edge, "used"));
            ] );
      ]
  in
  let p2' = Lf.eliminate_dead { p2 with Ir.outputs = [ "out" ] } in
  check_bool "live dependency kept" true (List.mem (`Edge, "used") (Ir.defs p2'))

(* --- materialization --- *)

let test_spaces_vanilla () =
  let p = Lt.canonicalize (Models.rgat ()) in
  let spaces = Mat.spaces Layout.default p in
  check_bool "zi edges" true (Mat.space_of spaces (`Edge, "zi") = Mat.Rows_edges);
  check_bool "out nodes" true (Mat.space_of spaces (`Node, "out") = Mat.Rows_nodes)

let test_spaces_compact () =
  let p = Lt.canonicalize (Models.rgat ()) in
  let spaces = Mat.spaces Layout.compact p in
  check_bool "zi compact-src" true (Mat.space_of spaces (`Edge, "zi") = Mat.Rows_compact_src);
  check_bool "zj compact-dst" true (Mat.space_of spaces (`Edge, "zj") = Mat.Rows_compact_dst);
  (* attention depends on both endpoints -> stays per-edge *)
  check_bool "attn per edge" true (Mat.space_of spaces (`Edge, "attn") = Mat.Rows_edges)

let test_spaces_compact_propagates () =
  let p = Lt.canonicalize (Models.hgt ()) in
  let spaces = Mat.spaces Layout.compact p in
  (* kw = linear(e.src["k"], Wa) : source node data + per-etype weight *)
  check_bool "kw compact-src" true (Mat.space_of spaces (`Edge, "kw") = Mat.Rows_compact_src);
  check_bool "m compact-src" true (Mat.space_of spaces (`Edge, "m") = Mat.Rows_compact_src)

let test_spaces_inherit () =
  let p =
    tiny_program
      [ Ir.For_each (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "z", Ir.Feature (Ir.Src, "h")) ]) ]
  in
  let spaces =
    Mat.spaces ~inherit_from:[ ((`Edge, "z"), Mat.Rows_edges) ] Layout.compact p
  in
  check_bool "pinned" true (Mat.space_of spaces (`Edge, "z") = Mat.Rows_edges)

(* --- lowering --- *)

let test_lowering_rgat_structure () =
  let c = compile ~compact:false ~fusion:false (Models.rgat ()) in
  check_int "two GEMMs (zi, zj)" 2 (Plan.gemm_count c.Compiler.forward);
  check_int "two traversals (softmax halves)" 2 (Plan.traversal_count c.Compiler.forward);
  check_int "no fallback" 0 (Plan.fallback_count c.Compiler.forward)

let test_lowering_fusion_drops_gemm () =
  let c = compile ~compact:false ~fusion:true (Models.rgat ()) in
  check_int "one GEMM after fusion" 1 (Plan.gemm_count c.Compiler.forward);
  check_int "prologue products present" 2
    (List.length
       (List.filter (function Plan.Weight_op _ -> true | _ -> false) c.Compiler.forward.Plan.steps))

let test_lowering_hgt_gemm_count () =
  let u = compile ~compact:false ~fusion:false (Models.hgt ()) in
  check_int "five GEMMs unfused" 5 (Plan.gemm_count u.Compiler.forward);
  let f = compile ~compact:false ~fusion:true (Models.hgt ()) in
  (* K,V node linears and their edge linears collapse into 2 edge GEMMs;
     Q remains: 3 total *)
  check_int "three GEMMs fused" 3 (Plan.gemm_count f.Compiler.forward)

let test_lowering_opaque_fallback () =
  let p =
    tiny_program
      [
        Ir.For_each
          (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Opaque ("mystery", [ Ir.Feature (Ir.Cur_edge, "s") ])) ]);
      ]
  in
  let c = compile ~compact:false ~fusion:false p in
  check_int "fallback emitted" 1 (Plan.fallback_count c.Compiler.forward);
  check_int "no traversal" 0 (Plan.traversal_count c.Compiler.forward)

let test_lowering_locals () =
  (* a variable produced and consumed inside one fused traversal becomes a
     register-allocated local with no buffer *)
  let p =
    {
      (tiny_program
         [
           Ir.For_each
             ( Ir.Edges,
               [
                 Ir.Assign (Ir.Cur_edge, "tmp", Ir.Binop (Ir.Mul, Ir.Feature (Ir.Cur_edge, "s"), Ir.Const 2.0));
                 Ir.Accumulate (Ir.Dst, "out", Ir.Data (Ir.Cur_edge, "tmp"));
               ] );
         ])
      with
      Ir.outputs = [ "out" ];
    }
  in
  let c = compile ~compact:false ~fusion:false p in
  check_bool "tmp has no buffer" true (Plan.find_buffer c.Compiler.forward "tmp" = None);
  match
    List.find_opt (function Plan.Traversal _ -> true | _ -> false) c.Compiler.forward.Plan.steps
  with
  | Some (Plan.Traversal t) -> check_bool "tmp is a local" true (List.mem "tmp" t.Ts.locals)
  | _ -> Alcotest.fail "expected traversal step"

let test_lowering_keeps_for_backward () =
  (* training compilation must keep forward intermediates the backward
     reads, even when private to one instance *)
  let c = compile ~training:true ~compact:false ~fusion:false (Models.rgat ()) in
  check_bool "attn buffer kept" true (Plan.find_buffer c.Compiler.forward "attn" <> None);
  match Plan.find_buffer c.Compiler.forward "attn" with
  | Some b -> check_bool "not temp" false b.Plan.temp
  | None -> Alcotest.fail "attn buffer missing"

let test_lowering_per_row_scalar_fusion () =
  let p =
    {
      (tiny_program
         [
           Ir.For_each
             ( Ir.Edges,
               [
                 Ir.Assign
                   ( Ir.Cur_edge,
                     "z",
                     Ir.Binop
                       ( Ir.Mul,
                         Ir.Linear (Ir.Feature (Ir.Src, "h"), Ir.Weight ("W", Ir.By_etype)),
                         Ir.Feature (Ir.Cur_edge, "s") ) );
               ] );
         ])
      with
      Ir.outputs = [];
    }
  in
  (* "s" is an Edge_input, not produced data, so the scalar cannot be
     matched by dims_of of produced vars — this documents the limitation:
     the pattern applies to produced scalars *)
  let p2 =
    tiny_program
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "sc", Ir.Feature (Ir.Cur_edge, "s"));
              Ir.Assign
                ( Ir.Cur_edge,
                  "z",
                  Ir.Binop
                    ( Ir.Mul,
                      Ir.Linear (Ir.Feature (Ir.Src, "h"), Ir.Weight ("W", Ir.By_etype)),
                      Ir.Data (Ir.Cur_edge, "sc") ) );
            ] );
      ]
  in
  ignore p;
  let c = compile ~compact:false ~fusion:false p2 in
  let gemm_with_scalar =
    List.exists
      (function
        | Plan.Gemm { Gs.task = Gs.Edge_linear { per_row_scalar = Some "sc"; _ }; _ } -> true
        | _ -> false)
      (Plan.flatten_steps c.Compiler.forward)
  in
  check_bool "scalar fused into GEMM store" true gemm_with_scalar

let test_schedule_validation () =
  check_bool "bad tile rejected" true
    (try
       Gs.validate_schedule { Gs.tile_width = 20; coarsen = 1; launch_bounds = false };
       false
     with Invalid_argument _ -> true);
  check_bool "bad coarsen rejected" true
    (try
       Gs.validate_schedule { Gs.tile_width = 16; coarsen = 3; launch_bounds = false };
       false
     with Invalid_argument _ -> true)

(* --- autodiff --- *)

let test_backward_generated_for_models () =
  List.iter
    (fun (name, build) ->
      let c = compile ~training:true ~compact:false ~fusion:false (build ()) in
      match c.Compiler.backward with
      | Some b ->
          check_bool (name ^ " backward has steps") true (List.length b.Plan.steps > 0);
          check_bool (name ^ " backward has gemms") true (Plan.gemm_count b > 0)
      | None -> Alcotest.fail (name ^ ": no backward plan"))
    Models.all

let test_backward_reads_forward () =
  let p = Lt.canonicalize (Models.rgat ()) in
  let r = Autodiff.backward p in
  (* softmax backward needs the forward attention values *)
  check_bool "reads attn_pre_exp" true (List.mem (`Edge, "attn_pre_exp") r.Autodiff.reads_forward);
  check_bool "reads zi" true (List.mem (`Edge, "zi") r.Autodiff.reads_forward)

let test_backward_seed_is_input () =
  let p = Lt.canonicalize (Models.rgcn ()) in
  let r = Autodiff.backward p in
  check_bool "d:out declared as input" true
    (match Ir.find_decl r.Autodiff.program "d:out" with
    | Some (Ir.Node_input _) -> true
    | _ -> false)

let test_backward_rejects_opaque () =
  let p =
    {
      (tiny_program
         [
           Ir.For_each
             (Ir.Edges, [ Ir.Assign (Ir.Cur_edge, "x", Ir.Opaque ("f", [ Ir.Feature (Ir.Cur_edge, "s") ])) ]);
         ])
      with
      Ir.outputs = [];
    }
  in
  check_bool "unsupported" true
    (try
       ignore (Autodiff.backward p);
       false
     with Autodiff.Unsupported _ -> true)

let test_backward_rejects_reassignment () =
  let p =
    tiny_program
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "x", Ir.Const 1.0);
              Ir.Assign (Ir.Cur_edge, "x", Ir.Const 2.0);
            ] );
      ]
  in
  check_bool "unsupported" true
    (try
       ignore (Autodiff.backward p);
       false
     with Autodiff.Unsupported _ -> true)

let test_grad_names () =
  check_string "grad name" "d:x" (Autodiff.grad_name "x");
  check_bool "is grad" true (Autodiff.is_grad_name "d:x");
  check_bool "not grad" false (Autodiff.is_grad_name "dx")

(* --- codegen --- *)

let test_codegen_gemm_schedule_directives () =
  let spec =
    {
      Gs.kid = 0;
      task =
        Gs.Edge_linear
          {
            side = `Src;
            input = Gs.Op_feature "h";
            weight = "W";
            output = "z";
            out_space = Mat.Rows_compact_src;
            transpose = false;
            per_row_scalar = None;
          };
      schedule = { Gs.tile_width = 32; coarsen = 2; launch_bounds = true };
    }
  in
  let src = Codegen.gemm_kernel Layout.default spec in
  check_bool "launch bounds" true (contains src "__launch_bounds__");
  check_bool "compact scatter" true (contains src "compact");
  check_bool "shared tiles sized by schedule" true (contains src "shmA[32][32]")

let test_codegen_traversal_adjacency () =
  let body = [ Ir.Accumulate (Ir.Dst, "sum", Ir.Feature (Ir.Cur_edge, "s")) ] in
  let lookup = function "sum" -> Some Mat.Rows_nodes | _ -> Some Mat.Rows_edges in
  let spec =
    {
      Ts.kid = 0;
      strategy = Ts.Edge_parallel;
      body;
      locals = [];
      schedule = Ts.default_schedule;
      passes = Traversal_passes.of_body ~lookup ~locals:[] ~fallback:false Ts.Edge_parallel body;
    }
  in
  let coo = Codegen.traversal_kernel Layout.default spec in
  check_bool "coo subscript" true (contains coo "coo_src[idxEdge]");
  check_bool "atomic" true (contains coo "atomicAdd");
  let csr = Codegen.traversal_kernel { Layout.default with Layout.adjacency = Layout.Csr } spec in
  check_bool "csr search" true (contains csr "binary_search_owner")

let test_plan_preprocessing () =
  let vanilla = compile ~compact:false ~fusion:false (Models.rgcn ()) in
  let compact = compile ~compact:true ~fusion:false (Models.rgcn ()) in
  let has sub plan =
    List.exists (fun s -> contains s sub) (Plan.preprocessing plan)
  in
  check_bool "COO listed" true (has "COO" vanilla.Compiler.forward);
  check_bool "presorting listed" true (has "presort" vanilla.Compiler.forward);
  check_bool "no compact map for vanilla" false (has "compact row mapping" vanilla.Compiler.forward);
  check_bool "compact map listed" true (has "(etype, src) compact" compact.Compiler.forward);
  let csr =
    Compiler.compile
      ~options:
        { Compiler.default_options with Compiler.layout = { Layout.default with Layout.adjacency = Layout.Csr } }
      (Models.rgcn ())
  in
  check_bool "CSR conversion listed" true (has "CSR" csr.Compiler.forward)

let test_codegen_emit_plan () =
  let c = compile ~compact:true ~fusion:true (Models.rgat ()) in
  let src = Codegen.emit_plan c.Compiler.forward in
  check_bool "has global kernels" true (contains src "__global__");
  check_bool "has host function" true (contains src "void hector_rgat");
  check_bool "has bmm prologue" true (contains src "at::bmm");
  check_bool "lists preprocessing" true (contains src "required preprocessing")

let suite =
  [
    Alcotest.test_case "check valid program" `Quick test_check_valid;
    Alcotest.test_case "check rejects bad entity" `Quick test_check_rejects_bad_entity;
    Alcotest.test_case "check rejects undeclared" `Quick test_check_rejects_undeclared;
    Alcotest.test_case "check rejects read-before-def" `Quick test_check_rejects_read_before_def;
    Alcotest.test_case "check rejects dim mismatch" `Quick test_check_rejects_dim_mismatch;
    Alcotest.test_case "check rejects wrong slice ctx" `Quick test_check_rejects_wrong_slice_context;
    Alcotest.test_case "check rejects assign to dst" `Quick test_check_rejects_assign_to_dst;
    Alcotest.test_case "check rejects bad output" `Quick test_check_rejects_bad_output;
    Alcotest.test_case "check accepts all models" `Quick test_check_models;
    Alcotest.test_case "shared width == checker shapes" `Quick test_width_agrees_with_check;
    Alcotest.test_case "edgeify incoming nest" `Quick test_edgeify;
    Alcotest.test_case "edgeify outgoing nest" `Quick test_edgeify_outgoing;
    Alcotest.test_case "edgeify preserves order" `Quick test_edgeify_preserves_order;
    Alcotest.test_case "nodeify roundtrip" `Quick test_nodeify_roundtrip;
    Alcotest.test_case "nodeify converts mixed dst loops" `Quick test_nodeify_converts_mixed_dst_loops;
    Alcotest.test_case "drop dead zero init" `Quick test_drop_zero_init;
    Alcotest.test_case "fuse adjacent legal" `Quick test_fuse_adjacent_legal;
    Alcotest.test_case "fusion blocked by scatter dep" `Quick test_fuse_adjacent_blocked_by_scatter;
    Alcotest.test_case "RGAT linear fusion removes zj" `Quick test_rgat_fusion_removes_zj;
    Alcotest.test_case "HGT linear fusion collapses chains" `Quick test_hgt_fusion_collapses_chains;
    Alcotest.test_case "RGCN linear fusion no-op" `Quick test_rgcn_fusion_noop;
    Alcotest.test_case "dead elimination fixpoint" `Quick test_eliminate_dead;
    Alcotest.test_case "spaces vanilla" `Quick test_spaces_vanilla;
    Alcotest.test_case "spaces compact src/dst" `Quick test_spaces_compact;
    Alcotest.test_case "compactness propagates" `Quick test_spaces_compact_propagates;
    Alcotest.test_case "spaces inherit pins" `Quick test_spaces_inherit;
    Alcotest.test_case "lowering RGAT structure" `Quick test_lowering_rgat_structure;
    Alcotest.test_case "fusion drops a GEMM" `Quick test_lowering_fusion_drops_gemm;
    Alcotest.test_case "HGT GEMM counts" `Quick test_lowering_hgt_gemm_count;
    Alcotest.test_case "opaque lowers to fallback" `Quick test_lowering_opaque_fallback;
    Alcotest.test_case "instance-private vars become locals" `Quick test_lowering_locals;
    Alcotest.test_case "training keeps backward reads" `Quick test_lowering_keeps_for_backward;
    Alcotest.test_case "per-row scalar fuses into GEMM" `Quick test_lowering_per_row_scalar_fusion;
    Alcotest.test_case "schedule validation" `Quick test_schedule_validation;
    Alcotest.test_case "backward generated for models" `Quick test_backward_generated_for_models;
    Alcotest.test_case "backward reads forward vars" `Quick test_backward_reads_forward;
    Alcotest.test_case "backward seed is an input" `Quick test_backward_seed_is_input;
    Alcotest.test_case "backward rejects opaque" `Quick test_backward_rejects_opaque;
    Alcotest.test_case "backward rejects reassignment" `Quick test_backward_rejects_reassignment;
    Alcotest.test_case "grad names" `Quick test_grad_names;
    Alcotest.test_case "codegen gemm directives" `Quick test_codegen_gemm_schedule_directives;
    Alcotest.test_case "codegen traversal adjacency" `Quick test_codegen_traversal_adjacency;
    Alcotest.test_case "plan preprocessing collection" `Quick test_plan_preprocessing;
    Alcotest.test_case "codegen whole plan" `Quick test_codegen_emit_plan;
  ]
