(* Tests for the inter-op kernel-fusion pass (Inter_op_fusion): fused
   plans must be numerically identical to the unfused pipeline — forward
   outputs, backward gradients and multi-step training — while launching
   strictly fewer kernels, and [fuse_ops = false] must reproduce the
   pre-fusion plans bit-for-bit. *)

module T = Hector_tensor.Tensor
module G = Hector_graph.Hetgraph
module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats
module Plan = Hector_core.Plan
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let graph_of ~seed ~nodes ~edges =
  Hector_graph.Generator.generate
    {
      Hector_graph.Generator.name = "fusion_test";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = nodes;
      num_edges = edges;
      compaction_target = 0.4;
      scale = 1.0;
      seed;
    }

let out_dim = 5

let compile ?(training = false) ?(compact = false) ?(fusion = false) ?fuse_ops model =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training ?fuse_ops ~compact ~fusion ())
    (Hector_models.Model_defs.by_name model ~in_dim:8 ~out_dim ())

let session ~graph ~seed compiled =
  let config = { Session.Config.default with Session.Config.seed } in
  Session.create ~config ~graph compiled

(* the pool size is process-wide: restore it however [f] exits *)
let with_domains n f =
  Hector_tensor.Domain_pool.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Hector_tensor.Domain_pool.set_num_domains None) f

let labels_of graph = Array.init graph.G.num_nodes (fun v -> v mod out_dim)
let launches s = (Stats.total (Engine.stats (Session.engine s))).Stats.launches

(* largest |a - b| over two (name, tensor) assoc lists; infinite when a
   name is missing on one side *)
let max_assoc_diff a b =
  if List.length a <> List.length b then infinity
  else
    List.fold_left
      (fun acc (name, t) ->
        match List.assoc_opt name b with
        | Some u -> Float.max acc (T.max_abs_diff t u)
        | None -> infinity)
      0.0 a

(* --- numerical equivalence (property) ---------------------------------- *)

(* Random model x graph x worker-domain count: a fused session and an
   unfused session built from the same seed must agree to <= 1e-6 on the
   forward outputs, the loss and weight gradients, and the weights after
   three full training steps. *)
let prop_fused_equals_unfused =
  QCheck.Test.make ~name:"fused == unfused (forward, grads, 3-step training)" ~count:6
    QCheck.(make Gen.(triple (int_range 0 1) (int_range 0 999) (int_range 1 2)))
    (fun (mi, seed, domains) ->
      with_domains domains @@ fun () ->
      let model = [| "rgcn"; "rgat" |].(mi) in
      let graph =
        graph_of ~seed:(seed + 1)
          ~nodes:(40 + (seed mod 3 * 25))
          ~edges:(160 + (seed mod 5 * 40))
      in
      let fused = compile ~training:true ~fuse_ops:true model in
      let unfused = compile ~training:true ~fuse_ops:false model in
      let sf = session ~graph ~seed:(3 + seed) fused in
      let su = session ~graph ~seed:(3 + seed) unfused in
      let forward_ok = max_assoc_diff (Session.forward sf) (Session.forward su) <= 1e-6 in
      let labels = labels_of graph in
      let lf = Session.loss_and_grads sf ~labels in
      let lu = Session.loss_and_grads su ~labels in
      let grads_ok =
        abs_float (lf -. lu) <= 1e-6
        && max_assoc_diff (Session.weight_grads sf) (Session.weight_grads su) <= 1e-6
      in
      let train_ok =
        let losses_ok = ref true in
        for _ = 1 to 3 do
          let lf = Session.train_step sf ~labels () in
          let lu = Session.train_step su ~labels () in
          if abs_float (lf -. lu) > 1e-6 then losses_ok := false
        done;
        !losses_ok && max_assoc_diff (Session.weights sf) (Session.weights su) <= 1e-6
      in
      forward_ok && grads_ok && train_ok)

(* --- strictly fewer launches ------------------------------------------- *)

(* one steady-state run (the warm-up run builds the plan arenas and is
   discarded) *)
let steady_launches ~run s =
  run s;
  Session.reset_clock s;
  run s;
  launches s

let test_fewer_launches model ~training () =
  let graph = graph_of ~seed:11 ~nodes:120 ~edges:480 in
  let labels = labels_of graph in
  let run s =
    if training then ignore (Session.train_step s ~labels ())
    else ignore (Session.forward s)
  in
  let count fuse_ops =
    steady_launches ~run (session ~graph ~seed:3 (compile ~training ~fuse_ops model))
  in
  let fused = count true and unfused = count false in
  check_bool
    (Printf.sprintf "%s fused launches strictly fewer (%d < %d)" model fused unfused)
    true (fused < unfused)

(* the fig5/rgcn_train acceptance pin: 2 fused forward groups + the agg
   memset, 2 fused backward groups + the d:agg memset (d:self and d:msg
   are zero-initialized inside their fused groups, so their memsets are
   elided), 2 loss kernels and 2 SGD updates = 10 launches per step,
   down from 16 unfused *)
let test_rgcn_train_launch_pin () =
  let graph = graph_of ~seed:11 ~nodes:120 ~edges:480 in
  let labels = labels_of graph in
  let run s = ignore (Session.train_step s ~labels ()) in
  let count fuse_ops =
    steady_launches ~run (session ~graph ~seed:3 (compile ~training:true ~fuse_ops "rgcn"))
  in
  check_int "rgcn train fused launches" 10 (count true);
  check_int "rgcn train unfused launches" 16 (count false)

(* --- fuse_ops: unset means on, false is the pre-fusion pipeline ---------- *)

let test_fuse_ops_option () =
  List.iter
    (fun model ->
      let off = compile ~training:true ~fuse_ops:false model in
      check_int (model ^ " fuse_ops off: no fused steps") 0
        (Plan.fused_count off.Compiler.forward);
      check_int (model ^ " fuse_ops off: no fused backward steps") 0
        (Plan.fused_count (Option.get off.Compiler.backward));
      let unset = compile ~training:true model in
      let on = compile ~training:true ~fuse_ops:true model in
      check_bool (model ^ " unset fuses") true (Plan.fused_count unset.Compiler.forward > 0);
      check_bool (model ^ " unset == on: forward plan") true
        (unset.Compiler.forward = on.Compiler.forward);
      check_bool (model ^ " unset == on: backward plan") true
        (unset.Compiler.backward = on.Compiler.backward))
    [ "rgcn"; "rgat" ]

(* --- steady-state allocations of the fused RGAT configurations --------- *)

(* table5/rgat_fused and fig6/rgat_compact_fused used to allocate three
   tensors per steady-state run (the linear-fusion weight ops rebuilt
   their stacked outputs every time); with weight-op output reuse the only
   per-run allocation left is the defensive copy [Session.forward]
   returns *)
let test_fused_rgat_steady_state_allocs () =
  List.iter
    (fun compact ->
      let graph = graph_of ~seed:7 ~nodes:120 ~edges:480 in
      let s = session ~graph ~seed:3 (compile ~compact ~fusion:true "rgat") in
      ignore (Session.forward s);
      let a0 = T.allocation_count () in
      ignore (Session.forward s);
      check_int
        (Printf.sprintf "rgat fused steady-state allocs (compact=%b)" compact)
        1
        (T.allocation_count () - a0))
    [ false; true ]

(* --- attribution stays total with fused provenance --------------------- *)

let test_fused_attribution_total () =
  let graph = graph_of ~seed:5 ~nodes:100 ~edges:400 in
  let s = session ~graph ~seed:3 (compile ~training:true ~fuse_ops:true "rgcn") in
  ignore (Session.train_step s ~labels:(labels_of graph) ());
  let st = Engine.stats (Session.engine s) in
  check_bool "attributed = elapsed under fusion" true
    (abs_float (Stats.attributed_ms st -. Engine.elapsed_ms (Session.engine s)) < 1e-9);
  (* fused steps bill under their "+"-joined constituent ops *)
  check_bool "a fused op key is attributed" true
    (List.exists (fun (op, _) -> String.contains op '+') (Stats.by_op st))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_equals_unfused;
    Alcotest.test_case "rgcn inference launches strictly fewer" `Quick
      (test_fewer_launches "rgcn" ~training:false);
    Alcotest.test_case "rgat inference launches strictly fewer" `Quick
      (test_fewer_launches "rgat" ~training:false);
    Alcotest.test_case "rgat training launches strictly fewer" `Quick
      (test_fewer_launches "rgat" ~training:true);
    Alcotest.test_case "rgcn training launch counts pinned" `Quick test_rgcn_train_launch_pin;
    Alcotest.test_case "fuse_ops unset fuses; false does not" `Quick test_fuse_ops_option;
    Alcotest.test_case "fused rgat steady state allocates once" `Quick
      test_fused_rgat_steady_state_allocs;
    Alcotest.test_case "attribution stays total under fusion" `Quick
      test_fused_attribution_total;
  ]
