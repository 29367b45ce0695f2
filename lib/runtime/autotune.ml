module Compiler = Hector_core.Compiler
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Ir = Hector_core.Inter_ir
module Engine = Hector_gpu.Engine
module Device = Hector_gpu.Device
module Memory = Hector_gpu.Memory
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph

type candidate = { options : Compiler.options; estimated_ms : float }

type result = { best : candidate; measured_ms : float; ranked : candidate list }

let layout_candidates training =
  List.map
    (fun (compact, fusion) -> Compiler.options_of_flags ~training ~compact ~fusion ())
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The full per-layout knob space: GEMM tile/coarsening, traversal
   accumulation strategy, node-gather scheduling and inter-op fusion
   on/off. *)
let schedule_candidates options =
  let gemm =
    options
    :: List.concat_map
         (fun tile_width ->
           List.map
             (fun coarsen ->
               {
                 options with
                 Compiler.gemm_schedule =
                   { Gs.tile_width; coarsen; launch_bounds = tile_width = 32 };
               })
             [ 2; 4 ])
         [ 16; 32 ]
  in
  let traversal =
    List.concat_map
      (fun o ->
        [
          o;
          {
            o with
            Compiler.traversal_schedule =
              {
                Ts.warp_accumulate =
                  not o.Compiler.traversal_schedule.Ts.warp_accumulate;
              };
          };
        ])
      gemm
    @ [ { options with Compiler.prefer_node_gather = true } ]
  in
  List.concat_map
    (fun o -> [ { o with Compiler.fuse_ops = true }; { o with Compiler.fuse_ops = false } ])
    traversal

(* The four fixed layouts lead the space, so they win ties in the
   (stable) ranking; their later copies inside the schedule space go. *)
let space training =
  let base = layout_candidates training in
  let seen = Hashtbl.create 128 in
  List.filter
    (fun o ->
      let id = Compiler.options_id o in
      if Hashtbl.mem seen id then false
      else (
        Hashtbl.add seen id ();
        true))
    (base @ List.concat_map schedule_candidates base)

(* One steady-state epoch; raises [Memory.Out_of_memory] when the
   candidate does not fit on the device. *)
let measure ?device ~training ~graph compiled =
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
  let epoch =
    if training then (
      let rng = Rng.create 3 in
      let labels =
        Array.init graph.G.num_nodes (fun _ -> Rng.int rng (Session.output_dim session))
      in
      fun () -> ignore (Session.train_step session ~labels ()))
    else fun () -> ignore (Session.forward session)
  in
  epoch ();
  Session.reset_clock session;
  epoch ();
  Engine.elapsed_ms (Session.engine session)

let search ?device ?(training = false) ?db ?(model_name = "model") ~graph program =
  let estimator = Plan_cost.create ?device ~graph () in
  (* compile every candidate once and price it; a candidate the compiler
     rejects (a documented rejection, nothing else) leaves the space *)
  let estimated =
    List.filter_map
      (fun options ->
        match Compiler.compile ~options program with
        | compiled ->
            Some ({ options; estimated_ms = Plan_cost.estimate_ms estimator compiled }, compiled)
        | exception (Invalid_argument _ | Hector_core.Autodiff.Unsupported _) -> None)
      (space training)
  in
  if estimated = [] then invalid_arg "Autotune.search: no candidate compiles";
  let ranked =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a.estimated_ms b.estimated_ms) estimated
  in
  (* the estimate is the ranking; the one run only confirms that the
     best-ranked candidate fits in device memory *)
  let rec first_fit = function
    | [] -> invalid_arg "Autotune.search: no configuration fits in device memory"
    | (c, compiled) :: rest -> (
        match measure ?device ~training ~graph compiled with
        | ms -> (c, ms)
        | exception Memory.Out_of_memory _ -> first_fit rest)
  in
  let best, measured_ms = first_fit ranked in
  Option.iter
    (fun db ->
      Tuning_db.record db ~model:(Ir.fingerprint program) ~model_name
        ~device:(Option.value device ~default:Device.rtx3090).Device.name
        ~training
        ~signature:(Tuning_db.signature graph)
        ~options:best.options ~estimated_ms:best.estimated_ms ~measured_ms)
    db;
  { best; measured_ms; ranked = List.map fst ranked }

let describe r =
  let o = r.best.options in
  let sched = o.Compiler.gemm_schedule in
  Printf.sprintf "%s, tile %d, coarsen %d%s%s%s%s: est %.3f ms, measured %.3f ms" (Compiler.layout_tag o)
    sched.Gs.tile_width sched.Gs.coarsen
    (if sched.Gs.launch_bounds then ", launch_bounds" else "")
    (if o.Compiler.traversal_schedule.Ts.warp_accumulate then "" else ", no-warp")
    (if o.Compiler.prefer_node_gather then ", node-gather" else "")
    (if o.Compiler.fuse_ops then "" else ", no-fuse")
    r.best.estimated_ms r.measured_ms
