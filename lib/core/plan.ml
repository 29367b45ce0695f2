type buffer = {
  name : string;
  scope : [ `Node | `Edge ];
  space : Materialization.space;
  dim : int;
  zero_init : bool;
  temp : bool;
}

type fallback = {
  kid : int;
  description : string;
  strategy : Traversal_spec.strategy;
  body : Inter_ir.stmt list;
  passes : Traversal_spec.pass list;
}

type step =
  | Weight_op of Linear_fusion.weight_op
  | Gemm of Gemm_spec.t
  | Traversal of Traversal_spec.t
  | Fallback of fallback
  | Fused of fused

and fused = { fid : int; members : step list }

(* Memory-planner metadata (see Buffer_plan): one placement per buffer,
   recording its live range over the step list and the storage slot the
   interval-graph coloring assigned it.  The types live here (not in
   Buffer_plan) so a plan can carry its own analysis without a dependency
   cycle. *)
type placement = {
  var : string;
  slot : int;  (* storage slot id; temp buffers with disjoint ranges share *)
  first : int;  (* index of the first step touching the buffer, -1 if none *)
  last : int;  (* index of the last step touching the buffer, -1 if none *)
  uninit_ok : bool;  (* fully overwritten by its defining step before any read *)
}

type memory = { placements : placement list; num_slots : int }

type t = {
  name : string;
  layout : Layout.t;
  program : Inter_ir.program;
  buffers : buffer list;
  steps : step list;
  spaces : (Inter_ir.var * Materialization.space) list;
  memory : memory;
}

let step_name = function
  | Weight_op (Linear_fusion.Mat_vec { out; _ }) | Weight_op (Linear_fusion.Mat_mat { out; _ }) ->
      Printf.sprintf "weight_op_%s" out
  | Gemm g -> Gemm_spec.name g
  | Traversal t -> Traversal_spec.name t
  | Fallback f -> Printf.sprintf "fallback_%d" f.kid
  | Fused f -> Printf.sprintf "fused_%d" f.fid

let rec accesses = function
  | Weight_op _ -> []
  | Gemm g -> Gemm_spec.accesses g.Gemm_spec.task
  | Traversal tr -> Inter_ir.accesses tr.Traversal_spec.body
  | Fallback f -> Inter_ir.accesses f.body
  | Fused f -> List.concat_map accesses f.members

let first_write step =
  List.find_map
    (function
      | Inter_ir.Assigned (_, x) | Inter_ir.Accumulated (_, x) | Inter_ir.Weight_grad x -> Some x
      | Inter_ir.Read_input _ | Inter_ir.Read_data _ -> None)
    (accesses step)

let rec step_op step =
  match step with
  | Weight_op (Linear_fusion.Mat_vec { out; _ }) | Weight_op (Linear_fusion.Mat_mat { out; _ }) ->
      out
  | Fused f -> String.concat "+" (List.map step_op f.members)
  | Gemm _ | Traversal _ -> Option.value (first_write step) ~default:(step_name step)
  | Fallback f -> Option.value (first_write step) ~default:f.description

let written_grads step =
  List.filter_map (function Inter_ir.Weight_grad w -> Some w | _ -> None) (accesses step)

let step_origin = function
  | Weight_op _ -> "linear_fusion"
  | Gemm _ -> "lowering.gemm"
  | Traversal _ -> "lowering.traversal"
  | Fallback _ -> "lowering.fallback"
  | Fused _ -> "inter_op_fusion"

let step_constituents = function Fused f -> List.map step_op f.members | _ -> []

(* Flatten fused groups back to their constituent steps: plan introspection
   (gemm/traversal/fallback counts, codegen kernel emission) is about what
   work the plan performs, not how many launches carry it. *)
let rec flatten_step = function Fused f -> List.concat_map flatten_step f.members | s -> [ s ]
let flatten_steps t = List.concat_map flatten_step t.steps

let gemm_count t =
  List.length (List.filter (function Gemm _ -> true | _ -> false) (flatten_steps t))

let traversal_count t =
  List.length (List.filter (function Traversal _ -> true | _ -> false) (flatten_steps t))

let fallback_count t =
  List.length (List.filter (function Fallback _ -> true | _ -> false) (flatten_steps t))

let fused_count t =
  List.length (List.filter (function Fused _ -> true | _ -> false) t.steps)

(* Accumulator buffers whose whole live range sits inside one fused step:
   their zero-initialization happens inside the fused kernel (accumulate in
   registers / shared memory), so the runtime skips the separate memset
   launch for them.  The storage fill itself still happens — numerics are
   unchanged, only the launch charge goes away. *)
let inline_zeroed t =
  let steps = Array.of_list t.steps in
  List.filter_map
    (fun (b : buffer) ->
      if not b.zero_init then None
      else
        match List.find_opt (fun p -> String.equal p.var b.name) t.memory.placements with
        | Some p
          when p.first >= 0 && p.first = p.last && p.first < Array.length steps
               && (match steps.(p.first) with Fused _ -> true | _ -> false) ->
            Some b.name
        | _ -> None)
    t.buffers

let find_buffer t name = List.find_opt (fun (b : buffer) -> String.equal b.name name) t.buffers

let preprocessing t =
  let needs = ref [] in
  let add s = if not (List.mem s !needs) then needs := s :: !needs in
  (match t.layout.Layout.adjacency with
  | Layout.Coo -> add "COO edge arrays (src, dst, etype), sorted by edge type"
  | Layout.Csr -> add "convert COO to CSR (row pointers + column indices)");
  add "presort nodes by node type (segment-MM)";
  List.iter
    (fun (_, space) ->
      match space with
      | Materialization.Rows_compact_src -> add "precompute (etype, src) compact row mapping"
      | Materialization.Rows_compact_dst -> add "precompute (etype, dst) compact row mapping"
      | Materialization.Rows_nodes | Materialization.Rows_edges -> ())
    t.spaces;
  let uses_gather =
    List.exists (function Gemm g -> Gemm_spec.uses_gather g | _ -> false) (flatten_steps t)
  in
  if uses_gather then add "build endpoint gather lists for GEMM access schemes";
  List.rev !needs

let pp_buffer fmt (b : buffer) =
  Format.fprintf fmt "%-14s %-5s rows=%-12s dim=%-4d%s%s" b.name
    (match b.scope with `Node -> "node" | `Edge -> "edge")
    (Materialization.space_name b.space) b.dim
    (if b.zero_init then " zero-init" else "")
    (if b.temp then " temp" else "")

let pp fmt t =
  Format.fprintf fmt "@[<v>plan %s (layout %a)@," t.name Layout.pp t.layout;
  Format.fprintf fmt "buffers:@,";
  List.iter (fun b -> Format.fprintf fmt "  %a@," pp_buffer b) t.buffers;
  Format.fprintf fmt "steps:";
  let rec pp_step indent s =
    match s with
    | Weight_op (Linear_fusion.Mat_vec { mat; vec; half; out }) ->
        Format.fprintf fmt "@,%s%s = bmm(%s, %s%s)" indent out mat vec
          (match half with `Left -> "[:half]" | `Right -> "[half:]" | `All -> "")
    | Weight_op (Linear_fusion.Mat_mat { left; right; out; _ }) ->
        Format.fprintf fmt "@,%s%s = bmm(%s, %s)" indent out left right
    | Gemm g -> Format.fprintf fmt "@,%s%a" indent Gemm_spec.pp g
    | Traversal tr -> Format.fprintf fmt "@,%s%a" indent Traversal_spec.pp tr
    | Fallback f -> Format.fprintf fmt "@,%sfallback_%d (%s)" indent f.kid f.description
    | Fused f ->
        Format.fprintf fmt "@,%sfused_%d (1 launch, %d ops):" indent f.fid
          (List.length f.members);
        List.iter (pp_step (indent ^ "  ")) f.members
  in
  List.iter (pp_step "  ") t.steps;
  Format.fprintf fmt "@]"
