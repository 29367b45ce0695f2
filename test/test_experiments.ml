(* Tests for the experiment harness, the table/figure drivers and the
   autotuner. *)

module H = Hector_experiments.Harness
module B = Hector_baselines.Baselines
module Compiler = Hector_core.Compiler
module Autotune = Hector_runtime.Autotune
module Gen = Hector_graph.Generator

let check_bool = Alcotest.(check bool)

(* a tiny context so driver smoke tests stay fast; created once *)
let ctx = lazy (H.create ~max_nodes:300 ~max_edges:900 ())

let test_dataset_cached () =
  let t = Lazy.force ctx in
  let a = H.dataset t "aifb" and b = H.dataset t "aifb" in
  check_bool "same instance" true (a == b)

let test_measurement_cached_and_deterministic () =
  let t = Lazy.force ctx in
  let config = { H.compact = true; fusion = true } in
  let m1 = H.hector t ~model:"rgcn" ~dataset:"aifb" ~training:false config in
  let m2 = H.hector t ~model:"rgcn" ~dataset:"aifb" ~training:false config in
  match (m1, m2) with
  | H.Ok { time_ms = t1; _ }, H.Ok { time_ms = t2; _ } ->
      check_bool "equal times" true (t1 = t2)
  | _ -> Alcotest.fail "measurement failed"

let test_hector_best_is_min () =
  let t = Lazy.force ctx in
  let best = H.hector_best t ~model:"rgat" ~dataset:"fb15k" ~training:false in
  List.iter
    (fun config ->
      match (best, H.hector t ~model:"rgat" ~dataset:"fb15k" ~training:false config) with
      | H.Ok { time_ms = b; _ }, H.Ok { time_ms = m; _ } ->
          check_bool "best <= config" true (b <= m +. 1e-9)
      | H.Ok _, H.Out_of_memory -> ()
      | H.Out_of_memory, _ -> Alcotest.fail "best should run")
    H.all_configs

let test_config_labels () =
  Alcotest.(check (list string))
    "labels" [ "U"; "C"; "F"; "C+F" ]
    (List.map H.config_label H.all_configs)

let test_geomean () =
  check_bool "geomean of 2 and 8" true (Float.abs (H.geomean [ 2.0; 8.0 ] -. 4.0) < 1e-9);
  check_bool "empty is nan" true (Float.is_nan (H.geomean []))

let test_fig5_speedups_rgat () =
  (* the headline claim: on RGAT, best Hector beats the best baseline on
     every dataset that both can run *)
  let t = Lazy.force ctx in
  let speedups = Hector_experiments.Fig5.speedups t ~training:false ~model:"rgat" in
  check_bool "has data" true (List.length speedups >= 4);
  List.iter (fun s -> check_bool (Printf.sprintf "speedup %.2f > 1.5" s) true (s > 1.5)) speedups

let test_table5_speedup_consistency () =
  let t = Lazy.force ctx in
  let config = { H.compact = true; fusion = true } in
  match
    ( Hector_experiments.Table5.speedup t ~model:"rgat" ~dataset:"fb15k" ~training:false config,
      H.hector t ~model:"rgat" ~dataset:"fb15k" ~training:false
        { H.compact = false; fusion = false },
      H.hector t ~model:"rgat" ~dataset:"fb15k" ~training:false config )
  with
  | Some s, H.Ok { time_ms = u; _ }, H.Ok { time_ms = c; _ } ->
      check_bool "ratio consistent" true (Float.abs (s -. (u /. c)) < 1e-9)
  | _ -> Alcotest.fail "expected measurements"

let test_table6_stats () =
  let t = Lazy.force ctx in
  match Hector_experiments.Table6.stats t ~model:"rgat" ~training:false with
  | Some (slowdowns, worst, mean, best) ->
      check_bool "worst <= mean <= best" true (worst <= mean && mean <= best);
      check_bool "rgat dominates" true (mean > 1.5);
      check_bool "slowdowns consistent" true (slowdowns >= 0)
  | None -> Alcotest.fail "no stats"

let test_drivers_smoke () =
  (* every table/figure driver runs without raising on a tiny context *)
  let t = Lazy.force ctx in
  let null = open_out (Filename.concat (Filename.get_temp_dir_name ()) "hector_driver_smoke.txt") in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel null) Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    close_out null
  in
  (try
     Hector_experiments.Table1.run t;
     Hector_experiments.Table2.run t;
     Hector_experiments.Table4.run t;
     Hector_experiments.Fig6.run t;
     restore ()
   with e ->
     restore ();
     raise e);
  check_bool "drivers ran" true true

(* --- autotune --- *)

let autotune_graph =
  lazy
    (Gen.generate
       {
         Gen.name = "at";
         num_ntypes = 3;
         num_etypes = 8;
         num_nodes = 200;
         num_edges = 700;
         compaction_target = 0.3;
         scale = 50.0;
         seed = 5;
       })

let test_autotune_best_is_minimum () =
  let graph = Lazy.force autotune_graph in
  let result = Autotune.search ~graph (Hector_models.Model_defs.rgat ()) in
  check_bool "candidates ranked" true (List.length result.Autotune.ranked > 4);
  check_bool "best heads the ranking" true
    (List.hd result.Autotune.ranked = result.Autotune.best);
  List.iter
    (fun (c : Autotune.candidate) ->
      check_bool "best is fastest" true
        (result.Autotune.best.Autotune.estimated_ms <= c.Autotune.estimated_ms))
    result.Autotune.ranked

(* The layout-only slice of the space: the four U/C/F/C+F configurations
   at the default schedule are each ranked once, and none beats the
   search's winner. *)
let test_autotune_layout_only () =
  let graph = Lazy.force autotune_graph in
  let result = Autotune.search ~graph (Hector_models.Model_defs.rgat ()) in
  let layouts =
    List.map
      (fun (compact, fusion) -> Compiler.options_of_flags ~compact ~fusion ())
      [ (false, false); (true, false); (false, true); (true, true) ]
  in
  let layout_only =
    List.filter
      (fun (c : Autotune.candidate) -> List.mem c.Autotune.options layouts)
      result.Autotune.ranked
  in
  check_bool "exactly four candidates" true (List.length layout_only = 4);
  List.iter
    (fun (c : Autotune.candidate) ->
      check_bool "winner no slower" true
        (result.Autotune.best.Autotune.estimated_ms <= c.Autotune.estimated_ms))
    layout_only

let test_autotune_beats_default () =
  let graph = Lazy.force autotune_graph in
  let result = Autotune.search ~graph (Hector_models.Model_defs.rgat ()) in
  let default =
    List.find
      (fun (c : Autotune.candidate) -> c.Autotune.options = Compiler.default_options)
      result.Autotune.ranked
  in
  check_bool "tuned <= default" true
    (result.Autotune.measured_ms <= default.Autotune.estimated_ms);
  check_bool "describe mentions time" true
    (String.length (Autotune.describe result) > 5)

let test_autotune_training () =
  let graph = Lazy.force autotune_graph in
  let result = Autotune.search ~training:true ~graph (Hector_models.Model_defs.rgcn ()) in
  check_bool "training search completes" true (result.Autotune.measured_ms > 0.0)

let suite =
  [
    Alcotest.test_case "dataset cached" `Quick test_dataset_cached;
    Alcotest.test_case "measurements cached+deterministic" `Quick test_measurement_cached_and_deterministic;
    Alcotest.test_case "hector_best is minimal" `Quick test_hector_best_is_min;
    Alcotest.test_case "config labels" `Quick test_config_labels;
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "Fig5 RGAT speedups > 1" `Quick test_fig5_speedups_rgat;
    Alcotest.test_case "Table5 speedup consistency" `Quick test_table5_speedup_consistency;
    Alcotest.test_case "Table6 stats" `Quick test_table6_stats;
    Alcotest.test_case "drivers smoke" `Quick test_drivers_smoke;
    Alcotest.test_case "autotune best is minimum" `Quick test_autotune_best_is_minimum;
    Alcotest.test_case "autotune layout-only search" `Quick test_autotune_layout_only;
    Alcotest.test_case "autotune beats default" `Quick test_autotune_beats_default;
    Alcotest.test_case "autotune training search" `Quick test_autotune_training;
  ]
