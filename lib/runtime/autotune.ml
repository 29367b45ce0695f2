module Compiler = Hector_core.Compiler
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Ir = Hector_core.Inter_ir
module Engine = Hector_gpu.Engine
module Device = Hector_gpu.Device
module Memory = Hector_gpu.Memory
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph

type candidate = { options : Compiler.options; estimated_ms : float; time_ms : float }

type result = { best : candidate; all : candidate list; ranked : candidate list }

(* Instrumentation: how much work searches perform, process-wide.  The
   serving tests pin the steady state to ZERO searches and ZERO candidate
   compiles on a warm tuning-DB hit — these counters are the witness. *)
let searches = ref 0
let compiles = ref 0
let measured = ref 0

let reset_counters () =
  searches := 0;
  compiles := 0;
  measured := 0

let search_count () = !searches
let candidate_compiles () = !compiles
let measured_runs () = !measured

let layout_candidates training =
  List.map
    (fun (compact, fusion) -> Compiler.options_of_flags ~training ~compact ~fusion ())
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The full per-layout knob space: GEMM tile/coarsening, traversal
   accumulation strategy, node-gather scheduling and inter-op fusion
   on/off.  Estimation prices all of it; only the top of the ranking is
   ever measured. *)
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
    (fun o ->
      [
        { o with Compiler.fuse_ops = Some true };
        { o with Compiler.fuse_ops = Some false };
      ])
    traversal

let dedup_by_id options =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun o ->
      let id = Compiler.options_id o in
      if Hashtbl.mem seen id then false
      else (
        Hashtbl.add seen id ();
        true))
    options

let measure ?device ~training ~graph compiled =
  incr measured;
  try
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
  with Memory.Out_of_memory _ -> infinity

let search ?device ?(training = false) ?(schedules = true) ?(top_k = 8) ?db
    ?(model_name = "model") ~graph program =
  if top_k < 1 then invalid_arg "Autotune.search: top_k must be >= 1";
  incr searches;
  let estimator = Plan_cost.create ?device ~graph () in
  let base = layout_candidates training in
  let space =
    if schedules then dedup_by_id (base @ List.concat_map schedule_candidates base)
    else base
  in
  (* stage 1: compile every candidate once and rank by analytic cost —
     no candidate executes here *)
  let estimated =
    List.filter_map
      (fun options ->
        incr compiles;
        match Compiler.compile ~options program with
        | compiled ->
            Some (options, compiled, Plan_cost.estimate_ms estimator compiled)
        | exception _ -> None)
      space
  in
  if estimated = [] then invalid_arg "Autotune.search: no candidate compiles";
  let ranked_full =
    List.sort (fun (_, _, a) (_, _, b) -> compare a b) estimated
  in
  let ranked =
    List.map
      (fun (options, _, estimated_ms) -> { options; estimated_ms; time_ms = nan })
      ranked_full
  in
  (* stage 2: measure the estimator's top-k — always joined by the four
     fixed U/C/F/C+F configurations, so the tuned result can never trail a
     fixed baseline *)
  let to_measure =
    if schedules then begin
      let top = List.filteri (fun i _ -> i < top_k) ranked_full in
      let top_ids = List.map (fun (o, _, _) -> Compiler.options_id o) top in
      let base_ids = List.map Compiler.options_id base in
      top
      @ List.filter
          (fun (o, _, _) ->
            let id = Compiler.options_id o in
            List.mem id base_ids && not (List.mem id top_ids))
          ranked_full
    end
    else ranked_full
  in
  let evaluated =
    List.map
      (fun (options, compiled, estimated_ms) ->
        { options; estimated_ms; time_ms = measure ?device ~training ~graph compiled })
      to_measure
  in
  let sorted = List.sort (fun a b -> compare a.time_ms b.time_ms) evaluated in
  match sorted with
  | best :: _ when best.time_ms < infinity ->
      (match db with
      | Some db ->
          Tuning_db.record db ~model:(Ir.fingerprint program) ~model_name
            ~device:(Option.value device ~default:Device.rtx3090).Device.name
            ~training
            ~signature:(Tuning_db.signature graph)
            ~options:best.options ~estimated_ms:best.estimated_ms
            ~measured_ms:best.time_ms
      | None -> ());
      { best; all = sorted; ranked }
  | _ -> invalid_arg "Autotune.search: no configuration fits in device memory"

let warmup ?device ?(training = false) ?top_k ?(model_name = "model") ~db_path ~graph
    program =
  let db = Tuning_db.load db_path in
  let device_name = (Option.value device ~default:Device.rtx3090).Device.name in
  let signature = Tuning_db.signature graph in
  match
    Tuning_db.lookup db ~model:(Ir.fingerprint program) ~device:device_name ~training
      signature
  with
  | Some (Tuning_db.Exact e) -> e.Tuning_db.options
  | Some (Tuning_db.Nearest _) | None ->
      let result = search ?device ~training ?top_k ~db ~model_name ~graph program in
      Tuning_db.save db db_path;
      result.best.options

let describe c =
  let o = c.options in
  let sched = o.Compiler.gemm_schedule in
  let layout =
    match (o.Compiler.layout.Hector_core.Layout.materialization, o.Compiler.linear_fusion)
    with
    | Hector_core.Layout.Compact, true -> "C+F"
    | Hector_core.Layout.Compact, false -> "C"
    | Hector_core.Layout.Vanilla, true -> "F"
    | Hector_core.Layout.Vanilla, false -> "U"
  in
  Printf.sprintf "%s, tile %d, coarsen %d%s%s%s%s: %s" layout sched.Gs.tile_width
    sched.Gs.coarsen
    (if sched.Gs.launch_bounds then ", launch_bounds" else "")
    (if o.Compiler.traversal_schedule.Ts.warp_accumulate then "" else ", no-warp")
    (if o.Compiler.prefer_node_gather then ", node-gather" else "")
    (match o.Compiler.fuse_ops with
    | Some false -> ", no-fuse"
    | Some true | None -> "")
    (if c.time_ms = infinity then "OOM"
     else if Float.is_nan c.time_ms then Printf.sprintf "est %.3f ms" c.estimated_ms
     else Printf.sprintf "est %.3f ms, measured %.3f ms" c.estimated_ms c.time_ms)
