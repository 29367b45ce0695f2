(* End-to-end runtime tests: compiled plans vs naive reference models,
   gradient checks, OOM behaviour, statistics. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel
module Ir = Hector_core.Inter_ir
module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Session = Hector_runtime.Session
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Train = Hector_runtime.Train
module Models = Hector_models.Model_defs
module Reference = Hector_models.Reference

let seeded seed = { Session.Config.default with seed }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_graph ?(seed = 3) ?(nodes = 60) ?(edges = 200) () =
  Gen.generate
    {
      Gen.name = "t";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = nodes;
      num_edges = edges;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let configs = [ (false, false); (true, false); (false, true); (true, true) ]

let config_name (c, f) =
  match (c, f) with false, false -> "U" | true, false -> "C" | false, true -> "F" | true, true -> "C+F"

let reference_of session name graph =
  let env = (Session.exec session).Exec.env in
  let inputs =
    List.filter_map
      (fun n -> Option.map (fun (e : Env.entry) -> (n, e.Env.tensor)) (Env.find_opt env n))
      [ "h"; "norm" ]
  in
  Reference.by_name name ~graph ~inputs ~weights:(Session.weights session)

(* --- forward correctness: every model x every configuration --- *)

let test_forward_matches_reference () =
  let graph = test_graph () in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun (compact, fusion) ->
          let options = Compiler.options_of_flags ~compact ~fusion () in
          let compiled = Compiler.compile ~options (build ()) in
          let session = Session.create ~config:(seeded 5) ~graph compiled in
          let out = List.assoc "out" (Session.forward session) in
          let expected = reference_of session name graph in
          check_bool
            (Printf.sprintf "%s/%s matches reference" name (config_name (compact, fusion)))
            true
            (T.approx_equal ~tol:1e-4 expected out))
        configs)
    Models.all

let test_forward_idempotent_across_epochs () =
  (* running the same plan twice (persistent buffers, re-zeroed
     accumulators) must give identical outputs *)
  let graph = test_graph () in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:true ())
      (Models.rgat ())
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let out1 = List.assoc "out" (Session.forward session) in
  let out2 = List.assoc "out" (Session.forward session) in
  check_bool "identical" true (T.approx_equal ~tol:0.0 out1 out2)

(* --- configurations agree with each other at machine precision --- *)

let test_configs_agree () =
  let graph = test_graph ~seed:17 () in
  List.iter
    (fun (name, build) ->
      let outs =
        List.map
          (fun (compact, fusion) ->
            let options = Compiler.options_of_flags ~compact ~fusion () in
            let compiled = Compiler.compile ~options (build ()) in
            let session = Session.create ~config:(seeded 9) ~graph compiled in
            List.assoc "out" (Session.forward session))
          configs
      in
      match outs with
      | base :: rest ->
          List.iteri
            (fun i out ->
              check_bool
                (Printf.sprintf "%s config %d agrees" name (i + 1))
                true
                (T.approx_equal ~tol:1e-6 base out))
            rest
      | [] -> assert false)
    Models.all

(* --- gradient check --- *)

let loss_of compiled graph weights labels =
  let weights = List.map (fun (n, w) -> (n, T.copy w)) weights in
  let s = Session.create ~config:{ (seeded 5) with weights } ~graph compiled in
  let out = List.assoc "out" (Session.forward s) in
  fst (Train.nll_loss ~engine:(Session.engine s) ~out ~labels)

let is_fused_name n = String.length n > 1 && String.equal (String.sub n 0 2) "__"

let test_gradients_match_finite_differences () =
  let graph = test_graph ~nodes:14 ~edges:40 ~seed:11 () in
  let rng = Rng.create 77 in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (compact, fusion) ->
          let program = Models.by_name name ~in_dim:6 ~out_dim:5 () in
          let options = Compiler.options_of_flags ~training:true ~compact ~fusion () in
          let compiled = Compiler.compile ~options program in
          let session = Session.create ~config:(seeded 5) ~graph compiled in
          let labels = Array.init graph.G.num_nodes (fun _ -> Rng.int rng 5) in
          let _ = Session.loss_and_grads session ~labels in
          let grads = Session.weight_grads session in
          let weights = Session.weights session in
          let eps = 1e-4 in
          List.iter
            (fun (wname, w) ->
              if not (is_fused_name wname) then
                match List.assoc_opt wname grads with
                | None -> ()
                | Some g ->
                    for _ = 0 to 2 do
                      let i = Rng.int rng (T.numel w) in
                      let flatw = T.reshape w [| T.numel w |] in
                      let orig = T.get1 flatw i in
                      T.set1 flatw i (orig +. eps);
                      let lp = loss_of compiled graph weights labels in
                      T.set1 flatw i (orig -. eps);
                      let lm = loss_of compiled graph weights labels in
                      T.set1 flatw i orig;
                      let numeric = (lp -. lm) /. (2.0 *. eps) in
                      let analytic = T.get1 (T.reshape g [| T.numel g |]) i in
                      let err =
                        Float.abs (numeric -. analytic) /. Float.max 1.0 (Float.abs numeric)
                      in
                      check_bool
                        (Printf.sprintf "%s/%s grad of %s[%d] err %.2e" name
                           (config_name (compact, fusion)) wname i err)
                        true (err < 2e-3)
                    done)
            weights)
        configs)
    Models.all

let test_training_reduces_loss () =
  let graph = test_graph ~nodes:40 ~edges:150 ~seed:23 () in
  let rng = Rng.create 99 in
  List.iter
    (fun (name, _) ->
      let program = Models.by_name name ~in_dim:8 ~out_dim:4 () in
      let compiled =
        Compiler.compile
          ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
          program
      in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let labels = Array.init graph.G.num_nodes (fun _ -> Rng.int rng 4) in
      let first = Session.train_step session ~lr:0.5 ~labels () in
      let last = ref first in
      for _ = 1 to 14 do
        last := Session.train_step session ~lr:0.5 ~labels ()
      done;
      check_bool (Printf.sprintf "%s loss decreases (%.4f -> %.4f)" name first !last) true
        (!last < first))
    Models.all

(* --- device behaviour --- *)

let test_stats_shape () =
  let graph = test_graph () in
  (* inter-op fusion off: this pins the per-category launch counts of the
     unfused pipeline (the fused counts are pinned in test_fusion.ml) *)
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~fuse_ops:false ~compact:false ~fusion:false ())
      (Models.rgat ())
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let _ = Session.forward session in
  let stats = Engine.stats (Session.engine session) in
  check_int "two GEMM launches" 2 (Stats.of_category stats Kernel.Gemm).Stats.launches;
  check_int "two traversal launches" 2 (Stats.of_category stats Kernel.Traversal).Stats.launches;
  check_bool "time advanced" true (Engine.elapsed_ms (Session.engine session) > 0.0)

let test_compact_reduces_gemm_work () =
  (* on a graph with heavy (etype, src) sharing, compact materialization
     must reduce GEMM flops *)
  let graph =
    Gen.generate
      {
        Gen.name = "dense";
        num_ntypes = 2;
        num_etypes = 4;
        num_nodes = 50;
        num_edges = 600;
        compaction_target = 0.2;
        scale = 1.0;
        seed = 5;
      }
  in
  let flops_of compact =
    let compiled =
      Compiler.compile ~options:(Compiler.options_of_flags ~compact ~fusion:false ())
        (Models.rgat ())
    in
    let session = Session.create ~config:(seeded 5) ~graph compiled in
    let _ = Session.forward session in
    (Stats.of_category (Engine.stats (Session.engine session)) Kernel.Gemm).Stats.flops
  in
  let vanilla = flops_of false and compact = flops_of true in
  check_bool
    (Printf.sprintf "compact %.0f < vanilla %.0f flops" compact vanilla)
    true (compact < 0.5 *. vanilla)

let test_scale_inflates_time_and_memory () =
  let base = test_graph () in
  let scaled =
    G.create ~name:"scaled" ~scale:100.0 ~metagraph:base.G.metagraph ~node_type:base.G.node_type
      ~edges:(Array.init base.G.num_edges (fun i -> (base.G.src.(i), base.G.dst.(i), base.G.etype.(i))))
      ()
  in
  let run graph =
    let compiled =
      Compiler.compile ~options:(Compiler.options_of_flags ~compact:false ~fusion:false ())
        (Models.rgcn ())
    in
    let session = Session.create ~config:(seeded 5) ~graph compiled in
    let _ = Session.forward session in
    (Engine.elapsed_ms (Session.engine session), Memory.peak_bytes (Engine.memory (Session.engine session)))
  in
  let t1, m1 = run base in
  let t2, m2 = run scaled in
  (* small physical graphs are launch-overhead bound, so time grows less
     than linearly; work and memory scale exactly *)
  check_bool "time inflated" true (t2 > t1);
  check_bool "memory inflated" true (m2 > 20.0 *. m1)

let test_oom_on_oversized_graph () =
  (* paper-scale vanilla RGAT training on mag- and wikikg2-like graphs must
     exhaust the 24 GB card (Table 5 footnote) *)
  List.iter
    (fun dsname ->
      let info = Hector_graph.Datasets.find dsname in
      let graph = Hector_graph.Datasets.load ~max_nodes:500 ~max_edges:1500 info in
      let compiled =
        Compiler.compile
          ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
          (Models.rgat ())
      in
      check_bool (dsname ^ " raises OOM") true
        (try
           let session = Session.create ~config:(seeded 5) ~graph compiled in
           let labels = Array.init graph.G.num_nodes (fun _ -> 0) in
           let _ = Session.train_step session ~labels () in
           false
         with Memory.Out_of_memory _ -> true))
    [ "mag" ]

let test_compact_avoids_oom () =
  (* ...and compact materialization fits (§4.3: mag/wikikg2 RGAT) *)
  List.iter
    (fun dsname ->
      let info = Hector_graph.Datasets.find dsname in
      let graph = Hector_graph.Datasets.load ~max_nodes:500 ~max_edges:1500 info in
      let compiled =
        Compiler.compile
          ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:false ())
          (Models.rgat ())
      in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let labels = Array.init graph.G.num_nodes (fun _ -> 0) in
      let loss = Session.train_step session ~labels () in
      check_bool (dsname ^ " runs") true (Float.is_finite loss))
    [ "mag"; "wikikg2" ]

(* --- traversal schedule (nodeify) equivalence --- *)

let test_node_gather_strategy_matches () =
  (* the node-gather schedule (prefer_node_gather) must compute the same
     result as the default edge-parallel schedule, on every model *)
  let graph = test_graph ~seed:31 () in
  List.iter
    (fun (name, build) ->
      let run prefer_node_gather =
        let options = { Compiler.default_options with Compiler.prefer_node_gather } in
        let compiled = Compiler.compile ~options (build ()) in
        let session = Session.create ~config:(seeded 5) ~graph compiled in
        List.assoc "out" (Session.forward session)
      in
      check_bool (name ^ " schedules agree") true
        (T.approx_equal ~tol:1e-6 (run false) (run true)))
    Models.all

let test_node_gather_no_atomics () =
  let options = { Compiler.default_options with Compiler.prefer_node_gather = true } in
  let compiled = Compiler.compile ~options (Models.rgcn ()) in
  let gather, atomic_edge =
    List.fold_left
      (fun (g, a) step ->
        match step with
        | Plan.Traversal t ->
            ( (g || t.Hector_core.Traversal_spec.strategy = Hector_core.Traversal_spec.Node_gather),
              a || Hector_core.Traversal_spec.has_atomic_updates t )
        | _ -> (g, a))
      (false, false) compiled.Compiler.forward.Plan.steps
  in
  check_bool "node-gather strategy used" true gather;
  check_bool "no atomic traversals remain" false atomic_edge

let test_warp_accumulate_schedule () =
  (* turning off the warp pre-reduction changes cost, never results *)
  let graph = test_graph ~seed:43 () in
  let run warp_accumulate =
    let options =
      {
        (Compiler.options_of_flags ~compact:false ~fusion:false ()) with
        Compiler.traversal_schedule = { Hector_core.Traversal_spec.warp_accumulate };
      }
    in
    let compiled = Compiler.compile ~options (Models.rgat ()) in
    let session = Session.create ~config:(seeded 5) ~graph compiled in
    let out = List.assoc "out" (Session.forward session) in
    (out, Engine.elapsed_ms (Session.engine session))
  in
  let out_on, t_on = run true in
  let out_off, t_off = run false in
  check_bool "results identical" true (T.approx_equal ~tol:0.0 out_on out_off);
  check_bool "pre-reduction is cheaper" true (t_on < t_off)

(* --- adjacency encoding (§3.3.5) --- *)

let test_csr_layout_same_outputs_different_cost () =
  let graph = test_graph ~seed:41 () in
  let run adjacency =
    let options =
      {
        (Compiler.options_of_flags ~compact:false ~fusion:false ()) with
        Compiler.layout = { Hector_core.Layout.default with Hector_core.Layout.adjacency };
      }
    in
    let compiled = Compiler.compile ~options (Models.rgat ()) in
    let session = Session.create ~config:(seeded 5) ~graph compiled in
    let out = List.assoc "out" (Session.forward session) in
    (out, Engine.elapsed_ms (Session.engine session))
  in
  let out_coo, t_coo = run Hector_core.Layout.Coo in
  let out_csr, t_csr = run Hector_core.Layout.Csr in
  check_bool "outputs identical" true (T.approx_equal ~tol:0.0 out_coo out_csr);
  (* the CSR ownership search costs more per edge than COO subscripts *)
  check_bool "CSR costs more here" true (t_csr > t_coo)

(* --- failure injection --- *)

let test_session_rejects_bad_weight_shape () =
  let graph = test_graph () in
  let compiled =
    Compiler.compile ~options:Compiler.default_options (Models.rgcn ~in_dim:8 ~out_dim:8 ())
  in
  (* W must be [etypes; 8; 8]; hand it garbage *)
  let bad = T.zeros [| 2; 3; 5 |] in
  check_bool "raises" true
    (try
       let session =
         Session.create ~config:{ (seeded 5) with weights = [ ("W", bad) ] } ~graph compiled
       in
       ignore (Session.forward session);
       false
     with T.Shape_error _ | Invalid_argument _ -> true)

let test_train_rejects_bad_labels () =
  let graph = test_graph () in
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
      (Models.rgcn ~in_dim:8 ~out_dim:4 ())
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  let raises labels =
    try
      ignore (Session.train_step session ~labels ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "label out of class range" true
    (raises (Array.make graph.G.num_nodes 99));
  check_bool "wrong label count" true (raises [| 0; 1 |])

let test_inference_session_rejects_training () =
  let graph = test_graph () in
  let compiled =
    Compiler.compile ~options:Compiler.default_options (Models.rgcn ())
  in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  check_bool "raises" true
    (try
       ignore (Session.train_step session ~labels:(Array.make graph.G.num_nodes 0) ());
       false
     with Invalid_argument _ -> true)

(* --- opaque fallback --- *)

let test_opaque_fallback_executes () =
  let program =
    {
      Ir.name = "with_opaque";
      decls =
        [ Ir.Node_input { name = "h"; dim = 4 }; Ir.Edge_input { name = "s"; dim = 1 } ];
      body =
        [
          Ir.For_each
            ( Ir.Edges,
              [
                Ir.Assign
                  (Ir.Cur_edge, "x", Ir.Opaque ("double", [ Ir.Feature (Ir.Cur_edge, "s") ]));
                Ir.Accumulate (Ir.Dst, "out", Ir.Data (Ir.Cur_edge, "x"));
              ] );
        ];
      outputs = [ "out" ];
    }
  in
  let graph = test_graph () in
  let compiled = Compiler.compile ~options:Compiler.default_options program in
  check_int "fallback step" 1 (Plan.fallback_count compiled.Compiler.forward);
  let engine = Engine.create ~scale:graph.G.scale () in
  let ctx = Hector_runtime.Graph_ctx.create graph in
  let env = Env.create () in
  let s = T.full [| graph.G.num_edges; 1 |] 2.5 in
  Env.add env ~name:"s"
    { Env.tensor = s; space = Hector_core.Materialization.Rows_edges; dim = 1; alloc = None };
  Env.add env ~name:"h"
    {
      Env.tensor = T.zeros [| graph.G.num_nodes; 4 |];
      space = Hector_core.Materialization.Rows_nodes;
      dim = 4;
      alloc = None;
    };
  let exec =
    Exec.create
      ~opaque:
        [
          ( "double",
            fun vals ->
              match vals with
              | [ Exec.Scalar v ] -> Exec.Scalar (2.0 *. v)
              | _ -> invalid_arg "double" );
        ]
      ~engine ~ctx ~env ()
  in
  Exec.run_plan exec compiled.Compiler.forward;
  let out = (Env.find env "out").Env.tensor in
  let expected_total = 2.0 *. 2.5 *. float_of_int graph.G.num_edges in
  check_bool "fallback computed" true (Float.abs (T.sum out -. expected_total) < 1e-6);
  let stats = Engine.stats engine in
  check_bool "fallback launches > 1 per edge op" true
    ((Stats.of_category stats Kernel.Fallback).Stats.launches > 1)

(* --- the U backward runs the C backward's GEMMs, bit for bit ---

   An uncompacted plan sums each edge-row gradient into its (relation,
   endpoint) pairs, from 0.0 in ascending edge order, before the weight
   and input gradient GEMMs, which is exactly how the compact plan's
   traversal accumulates its pair-row gradient.  So RGCN and HGT train to
   the same bits in both layouts: the loss, every weight gradient and the
   weights after three SGD steps, at every domain count, on full replicas
   and on sampled blocks. *)

let with_domains n f =
  Hector_tensor.Domain_pool.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Hector_tensor.Domain_pool.set_num_domains None) f

let check_same_bits what u c =
  List.iter2
    (fun (name, tu) (name', tc) ->
      check_bool (what ^ ": same weight names") true (name = name');
      let fu = T.to_flat_array tu and fc = T.to_flat_array tc in
      check_int (Printf.sprintf "%s %s: size" what name) (Array.length fc) (Array.length fu);
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float fc.(i) then
            Alcotest.failf "%s %s[%d]: U %h, C %h" what name i x fc.(i))
        fu)
    u c

let check_same_loss what u c =
  if Int64.bits_of_float u <> Int64.bits_of_float c then Alcotest.failf "%s: U loss %h, C loss %h" what u c

let training_compiled model ~compact =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training:true ~compact ~fusion:false ())
    (Models.by_name model ~in_dim:16 ~out_dim:4 ())

let test_u_backward_equals_c () =
  let replicas =
    List.map
      (fun name ->
        (name, Hector_graph.Datasets.load ~max_nodes:600 ~max_edges:2400 (Hector_graph.Datasets.find name)))
      [ "am"; "fb15k" ]
  in
  List.iter
    (fun domains ->
      with_domains domains @@ fun () ->
      List.iter
        (fun model ->
          List.iter
            (fun (dsname, graph) ->
              let what = Printf.sprintf "%s on %s (%d domains)" model dsname domains in
              let labels = Array.init graph.G.num_nodes (fun v -> v mod 4) in
              let session compact =
                Session.create ~config:(seeded 5) ~graph (training_compiled model ~compact)
              in
              let u = session false and c = session true in
              check_same_bits (what ^ ", initial") (Session.weights u) (Session.weights c);
              check_same_loss what
                (Session.loss_and_grads u ~labels)
                (Session.loss_and_grads c ~labels);
              check_same_bits (what ^ ", gradient") (Session.weight_grads u) (Session.weight_grads c);
              for step = 1 to 3 do
                check_same_loss
                  (Printf.sprintf "%s, step %d" what step)
                  (Session.train_step u ~labels ())
                  (Session.train_step c ~labels ())
              done;
              check_same_bits (what ^ ", after 3 steps") (Session.weights u) (Session.weights c))
            replicas;
          (* sampled blocks: the same seeds draw the same blocks *)
          let graph = List.assoc "am" replicas in
          let features = T.randn (Rng.create 9) [| graph.G.num_nodes; 16 |] in
          let labels = Array.init graph.G.num_nodes (fun v -> v mod 4) in
          let trainer compact =
            Hector_runtime.Minibatch.create ~seed:6 ~graph ~features ~labels
              (training_compiled model ~compact)
          in
          let u = trainer false and c = trainer true in
          for step = 0 to 2 do
            let batch = Array.init 24 (fun i -> ((step * 97) + (i * 13)) mod graph.G.num_nodes) in
            let ru = Hector_runtime.Minibatch.step u ~batch () in
            let rc = Hector_runtime.Minibatch.step c ~batch () in
            check_same_loss
              (Printf.sprintf "%s block step %d (%d domains)" model step domains)
              ru.Hector_runtime.Minibatch.loss rc.Hector_runtime.Minibatch.loss
          done;
          check_same_bits
            (Printf.sprintf "%s blocks (%d domains)" model domains)
            (Hector_runtime.Minibatch.weights u) (Hector_runtime.Minibatch.weights c))
        [ "rgcn"; "hgt" ])
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "forward matches reference (12 configs)" `Quick test_forward_matches_reference;
    Alcotest.test_case "forward idempotent across epochs" `Quick test_forward_idempotent_across_epochs;
    Alcotest.test_case "configs agree pairwise" `Quick test_configs_agree;
    Alcotest.test_case "gradients match finite differences" `Slow test_gradients_match_finite_differences;
    Alcotest.test_case "training reduces loss" `Quick test_training_reduces_loss;
    Alcotest.test_case "stats shape" `Quick test_stats_shape;
    Alcotest.test_case "compact reduces GEMM work" `Quick test_compact_reduces_gemm_work;
    Alcotest.test_case "scale inflates time and memory" `Quick test_scale_inflates_time_and_memory;
    Alcotest.test_case "vanilla RGAT OOMs on mag" `Quick test_oom_on_oversized_graph;
    Alcotest.test_case "compact avoids the OOM" `Quick test_compact_avoids_oom;
    Alcotest.test_case "node-gather schedule matches" `Quick test_node_gather_strategy_matches;
    Alcotest.test_case "node-gather used after nodeify" `Quick test_node_gather_no_atomics;
    Alcotest.test_case "CSR layout: same outputs, different cost" `Quick
      test_csr_layout_same_outputs_different_cost;
    Alcotest.test_case "warp-accumulate schedule" `Quick test_warp_accumulate_schedule;
    Alcotest.test_case "session rejects bad weight shape" `Quick test_session_rejects_bad_weight_shape;
    Alcotest.test_case "train rejects bad labels" `Quick test_train_rejects_bad_labels;
    Alcotest.test_case "inference session rejects training" `Quick
      test_inference_session_rejects_training;
    Alcotest.test_case "opaque fallback executes" `Quick test_opaque_fallback_executes;
    Alcotest.test_case "U backward == C backward, bitwise" `Quick test_u_backward_equals_c;
  ]
