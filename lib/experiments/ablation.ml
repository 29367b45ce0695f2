module Compiler = Hector_core.Compiler
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Device = Hector_gpu.Device
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Session = Hector_runtime.Session
module Autotune = Hector_runtime.Autotune

let measure ?device graph options =
  let program = Hector_models.Model_defs.rgat () in
  try
    let compiled = Compiler.compile ~options program in
    let session =
      Session.create
        ~config:
          {
            Session.Config.default with
            device = Option.value device ~default:Session.Config.default.device;
            seed = 11;
          }
        ~graph compiled
    in
    ignore (Session.forward session);
    Session.reset_clock session;
    ignore (Session.forward session);
    Some (Engine.elapsed_ms (Session.engine session))
  with Memory.Out_of_memory _ -> None

let fmt = function Some ms -> Printf.sprintf "%8.3f" ms | None -> "     OOM"

let run t =
  print_endline "Ablation 1: GEMM schedule sweep (RGAT inference, configuration C)";
  Printf.printf "%-9s | %9s %9s %9s %9s %12s\n" "dataset" "t16/c1" "t16/c2" "t32/c1" "t32/c2"
    "t32/c2+lb";
  List.iter
    (fun ds ->
      let graph = Harness.dataset t ds in
      let cells =
        List.map
          (fun (tile_width, coarsen, launch_bounds) ->
            let options =
              {
                (Compiler.options_of_flags ~compact:true ~fusion:false ()) with
                Compiler.gemm_schedule = { Gs.tile_width; coarsen; launch_bounds };
              }
            in
            fmt (measure graph options))
          [ (16, 1, false); (16, 2, false); (32, 1, false); (32, 2, false); (32, 2, true) ]
      in
      Printf.printf "%-9s | %s\n" ds (String.concat " " cells))
    [ "fb15k"; "am"; "mag" ];
  print_newline ();

  print_endline "Ablation 2: traversal strategy (edge-parallel atomics vs node-gather)";
  Printf.printf "%-9s | %12s %12s\n" "dataset" "edge-par" "node-gather";
  List.iter
    (fun ds ->
      let graph = Harness.dataset t ds in
      let base = Compiler.options_of_flags ~compact:false ~fusion:false () in
      Printf.printf "%-9s | %12s %12s\n" ds
        (fmt (measure graph base))
        (fmt (measure graph { base with Compiler.prefer_node_gather = true })))
    [ "fb15k"; "am" ];
  print_newline ();

  print_endline "Ablation 3: warp-level pre-reduction before atomics (on/off)";
  Printf.printf "%-9s | %12s %12s\n" "dataset" "warp-accum" "plain atomics";
  List.iter
    (fun ds ->
      let graph = Harness.dataset t ds in
      let base = Compiler.options_of_flags ~compact:false ~fusion:false () in
      Printf.printf "%-9s | %12s %12s\n" ds
        (fmt (measure graph base))
        (fmt
           (measure graph
              { base with Compiler.traversal_schedule = { Ts.warp_accumulate = false } })))
    [ "fb15k"; "am" ];
  print_newline ();

  print_endline "Ablation 4: device sensitivity + Autotune's pick (RGAT inference)";
  List.iter
    (fun (device : Device.t) ->
      let graph = Harness.dataset t "am" in
      let result =
        Autotune.search ~device ~graph (Hector_models.Model_defs.rgat ())
      in
      Printf.printf "  %-10s best: %s\n" device.Device.name
        (Autotune.describe result.Autotune.best))
    [ Device.rtx3090; Device.a100_40gb ]
