let log_src = Logs.Src.create "hector.compiler" ~doc:"Hector compilation pipeline"

module Log = (val Logs.src_log log_src)

type options = {
  layout : Layout.t;
  linear_fusion : bool;
  training : bool;
  gemm_schedule : Gemm_spec.schedule;
  traversal_schedule : Traversal_spec.schedule;
  prefer_node_gather : bool;
  fuse_ops : bool;
}

let default_options =
  {
    layout = Layout.default;
    linear_fusion = false;
    training = false;
    gemm_schedule = Gemm_spec.default_schedule;
    traversal_schedule = Traversal_spec.default_schedule;
    prefer_node_gather = false;
    fuse_ops = true;
  }

let options_of_flags ?(training = false) ?(fuse_ops = true) ~compact ~fusion () =
  {
    default_options with
    layout = (if compact then Layout.compact else Layout.default);
    linear_fusion = fusion;
    training;
    fuse_ops;
  }

let layout_tag (o : options) =
  match (o.layout.Layout.materialization, o.linear_fusion) with
  | Layout.Compact, true -> "C+F"
  | Layout.Compact, false -> "C"
  | Layout.Vanilla, true -> "F"
  | Layout.Vanilla, false -> "U"

(* Compact human-readable identifier covering every field that can change
   the compiled plan — two option records with equal ids compile
   identically. *)
let options_id (o : options) =
  Printf.sprintf "%s:%s:t%dc%d%s:%s%s%s%s" (layout_tag o)
    (match o.layout.Layout.adjacency with Layout.Coo -> "coo" | Layout.Csr -> "csr")
    o.gemm_schedule.Gemm_spec.tile_width o.gemm_schedule.Gemm_spec.coarsen
    (if o.gemm_schedule.Gemm_spec.launch_bounds then "+lb" else "")
    (if o.traversal_schedule.Traversal_spec.warp_accumulate then "warp" else "nowarp")
    (if o.prefer_node_gather then ":ng" else "")
    (if o.training then ":train" else "")
    (if o.fuse_ops then ":fuse" else ":nofuse")

type compiled = {
  options : options;
  forward : Plan.t;
  backward : Plan.t option;
  fusion_rewrites : int;
  weight_ops : Linear_fusion.weight_op list;
}

(* Every compile in the process, counted here and nowhere else: the one
   witness each "compiles nothing" check reads.  Atomic, like
   [Tensor.allocation_count], so a compile on any domain is counted. *)
let compile_counter = Atomic.make 0
let compiles () = Atomic.get compile_counter

let compile ?(obs = Hector_obs.disabled) ?(options = default_options) program =
  Atomic.incr compile_counter;
  Hector_obs.time obs ~kind:"pass" "compile" @@ fun () ->
  (* canonicalize before checking: explicit zero-inits of accumulated
     variables (Listing-1 style) are dropped there, and the checker's shape
     rules apply to the accumulation form *)
  let program =
    Hector_obs.time obs ~kind:"pass" "loop_transform" (fun () ->
        Loop_transform.canonicalize program)
  in
  ignore (Hector_obs.time obs ~kind:"pass" "check" (fun () -> Check.check_exn program));
  let program, weight_ops, fusion_rewrites =
    if options.linear_fusion then
      Hector_obs.time obs ~kind:"pass" "linear_fusion" (fun () ->
          let r = Linear_fusion.run program in
          (* fusion may remove statements; re-fuse the surviving loops *)
          ( Loop_transform.fuse_adjacent r.Linear_fusion.program,
            r.Linear_fusion.weight_ops,
            r.Linear_fusion.rewrites ))
    else (program, [], 0)
  in
  Log.debug (fun m ->
      m "%s: canonicalized (%d top-level loops), %d linear-fusion rewrites"
        program.Inter_ir.name
        (List.length program.Inter_ir.body)
        fusion_rewrites);
  let backward_result =
    if options.training then
      Some (Hector_obs.time obs ~kind:"pass" "autodiff" (fun () -> Autodiff.backward program))
    else None
  in
  let keep =
    match backward_result with
    | None -> []
    | Some r -> r.Autodiff.reads_forward
  in
  let forward_program =
    if options.prefer_node_gather then Loop_transform.nodeify program else program
  in
  let forward =
    Hector_obs.time obs ~kind:"pass" "lowering.forward" (fun () ->
        Lowering.lower ~obs ~keep ~gemm_schedule:options.gemm_schedule
          ~traversal_schedule:options.traversal_schedule ~layout:options.layout ~weight_ops
          forward_program)
  in
  let backward =
    Option.map
      (fun (r : Autodiff.result) ->
        let forward_infos = Check.check_exn program in
        let dims =
          List.map
            (fun (i : Check.var_info) ->
              ((i.Check.scope, i.Check.name), Check.shape_dim i.Check.shape))
            forward_infos
        in
        (* gradients inherit their primal's row space *)
        let pins =
          List.map
            (fun (v, s) -> ((fst v, Autodiff.grad_name (snd v)), s))
            forward.Plan.spaces
        in
        let context =
          { Lowering.spaces = forward.Plan.spaces @ pins; dims }
        in
        Hector_obs.time obs ~kind:"pass" "lowering.backward" (fun () ->
            Lowering.lower ~obs ~context ~gemm_schedule:options.gemm_schedule
              ~traversal_schedule:options.traversal_schedule ~layout:options.layout
              ~weight_ops:[] r.Autodiff.program))
      backward_result
  in
  let forward, backward =
    if options.fuse_ops then
      Hector_obs.time obs ~kind:"pass" "inter_op_fusion" (fun () ->
          (Inter_op_fusion.run ~obs forward, Option.map (Inter_op_fusion.run ~obs) backward))
    else (forward, backward)
  in
  let forward = Traversal_passes.record forward and backward = Option.map Traversal_passes.record backward in
  Log.debug (fun m ->
      m "%s: forward plan %d gemm / %d traversal / %d fallback steps%s"
        program.Inter_ir.name (Plan.gemm_count forward) (Plan.traversal_count forward)
        (Plan.fallback_count forward)
        (match backward with
        | Some b ->
            Printf.sprintf "; backward %d gemm / %d traversal" (Plan.gemm_count b)
              (Plan.traversal_count b)
        | None -> ""));
  { options; forward; backward; fusion_rewrites; weight_ops }
