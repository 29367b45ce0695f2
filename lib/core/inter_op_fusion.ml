(* Inter-operator kernel fusion (see DESIGN.md, "Inter-op fusion").

   Greedily merges adjacent plan steps that share an iteration space —
   per-edge GEMMs + edge traversals, per-node GEMMs + node maps — into
   Plan.Fused groups that the runtime launches as ONE kernel.  Members
   still execute in their original order inside the group, so numerics are
   bit-identical to the unfused plan; only the launch accounting changes.

   A step may join the current group when:
   - it iterates the same space (edges vs. nodes) as the group;
   - the group does not already contain a GEMM if the step is one (the
     fused kernel keeps at most one tiled-matmul body);
   - it reads nothing a previous member wrote non-injectively (a scatter
     into node rows from an edge sweep, or a compact-row `+=` that sums
     partial contributions across threads) — inside one launch those
     values are not yet complete when another thread reads them;
   - it does not itself write non-injectively into anything a previous
     member read (the anti-dependency: another thread's scatter could land
     before this thread's read).

   Injective writes are safe to forward inside a group: per-edge/per-node
   assigns touch exactly the row the thread owns, and assigns into compact
   rows are pair-constant by the compaction legality condition, so
   duplicate writes store the same value. *)

module Ir = Inter_ir
module Ts = Traversal_spec
module Gs = Gemm_spec
module Mat = Materialization

type space = Edges | Nodes

let step_space = function
  | Plan.Weight_op _ | Plan.Fallback _ | Plan.Fused _ -> None
  | Plan.Gemm g -> (
      match g.Gs.task with
      | Gs.Node_linear _ | Gs.Node_linear_dweight _ -> Some Nodes
      | Gs.Edge_linear _ | Gs.Edge_linear_dinput _ | Gs.Edge_linear_dweight _ -> Some Edges)
  | Plan.Traversal t -> (
      match t.Ts.strategy with
      | Ts.Node_map -> Some Nodes
      | Ts.Edge_parallel | Ts.Node_gather -> Some Edges)

let is_gemm = function Plan.Gemm _ -> true | _ -> false

let compact_space spaces x =
  match List.assoc_opt (`Edge, x) spaces with
  | Some (Mat.Rows_compact_src | Mat.Rows_compact_dst) -> true
  | _ -> false

(* (reads, hazard writes) of one step over iteration space [space], its
   traversal's register-resident locals left out.  A hazard write is one
   that is not injective in the iteration variable: scatters into node
   rows from an edge sweep, and accumulation into compact rows (several
   edges of the same pair each add a partial term).  An accumulation
   reads its own target (read-modify-write); a weight gradient lands in
   storage no plan step reads, so it is neither. *)
let step_effects ~space ~spaces step =
  let locals = match step with Plan.Traversal t -> t.Ts.locals | _ -> [] in
  let hazard ent x ~accumulating =
    match (space, ent) with
    | Nodes, Ir.Cur_node -> false
    | Nodes, _ -> true
    | Edges, Ir.Cur_edge -> accumulating && compact_space spaces x
    | Edges, (Ir.Src | Ir.Dst | Ir.Cur_node) -> true
  in
  List.fold_left
    (fun (reads, hazards) a ->
      match a with
      | _ when List.mem (Ir.access_name a) locals -> (reads, hazards)
      | Ir.Read_input (_, x) | Ir.Read_data (_, x) -> (x :: reads, hazards)
      | Ir.Assigned (ent, x) -> (reads, if hazard ent x ~accumulating:false then x :: hazards else hazards)
      | Ir.Accumulated (ent, x) ->
          (x :: reads, if hazard ent x ~accumulating:true then x :: hazards else hazards)
      | Ir.Weight_grad _ -> (reads, hazards))
    ([], []) (Plan.accesses step)

type group = {
  members : Plan.step list;  (* reversed *)
  space : space;
  has_gemm : bool;
  reads : string list;
  hazards : string list;
}

let intersects a b = List.exists (fun x -> List.mem x b) a

let run ?(obs = Hector_obs.disabled) (plan : Plan.t) =
  let spaces = plan.Plan.spaces in
  let fid = ref 0 in
  let flush acc = function
    | None -> acc
    | Some g -> (
        match g.members with
        | [ s ] -> s :: acc
        | members ->
            let f = Plan.Fused { fid = !fid; members = List.rev members } in
            incr fid;
            f :: acc)
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) step ->
        match step_space step with
        | None -> (step :: flush acc cur, None)
        | Some sp -> (
            let reads, hazards = step_effects ~space:sp ~spaces step in
            match cur with
            | Some g
              when g.space = sp
                   && (not (is_gemm step && g.has_gemm))
                   && (not (intersects reads g.hazards))
                   && not (intersects hazards g.reads) ->
                ( acc,
                  Some
                    {
                      g with
                      members = step :: g.members;
                      has_gemm = g.has_gemm || is_gemm step;
                      reads = reads @ g.reads;
                      hazards = hazards @ g.hazards;
                    } )
            | _ ->
                ( flush acc cur,
                  Some
                    { members = [ step ]; space = sp; has_gemm = is_gemm step; reads; hazards } )))
      ([], None) plan.Plan.steps
  in
  let steps = List.rev (flush acc cur) in
  if !fid = 0 then plan (* nothing fused; keep the plan (and its memory) as-is *)
  else
    (* fused groups are single indices in the step list now, so group-local
       temporaries collapse to one-step live ranges and the interval
       coloring can reclaim (or memset-elide) them *)
    let memory =
      Hector_obs.time obs ~kind:"pass" "buffer_plan" (fun () ->
          Buffer_plan.analyze ~buffers:plan.Plan.buffers ~steps)
    in
    { plan with Plan.steps; memory }
