(* Plan-lifetime memory planner: liveness over the step list + interval
   coloring of temp buffers onto shared storage slots.  See buffer_plan.mli
   for the contract. *)

module Ir = Inter_ir
module Gs = Gemm_spec
module Ts = Traversal_spec
module Mat = Materialization

(* Variable names a step touches (traversal locals included, though they
   have no buffer).  Weight stacks and weight gradients are not plan
   buffers, so weight ops and [Weight_grad] targets contribute nothing. *)
let step_vars step =
  List.filter_map
    (function Ir.Weight_grad _ -> None | a -> Some (Ir.access_name a))
    (Plan.accesses step)

(* --- full-definition analysis (create_uninit safety) ----------------

   A buffer may be backed by uninitialized storage when the first step that
   touches it writes every row before anything reads it.  We prove this
   only for the clear-cut cases; anything else conservatively keeps the
   zero fill. *)

(* Do the facts read buffer [name] — an accumulation reads its target
   (read-modify-write)? *)
let reads name acc =
  List.exists
    (function
      | Ir.Read_input (_, n) | Ir.Read_data (_, n) | Ir.Accumulated (_, n) -> String.equal n name
      | Ir.Assigned _ | Ir.Weight_grad _ -> false)
    acc

(* Does [st], executed under [strategy], assign every row of buffer [b]?
   Edge sweeps (edge-parallel, or node-gather over the incoming CSR) visit
   every edge, hence every edge row and every compact pair row (each pair
   has at least one edge); node maps visit every node row. *)
let covering_assign (b : Plan.buffer) strategy st =
  match (st, strategy) with
  | Ir.Assign (Ir.Cur_edge, n, _), (Ts.Edge_parallel | Ts.Node_gather) ->
      String.equal n b.Plan.name
      && (match b.Plan.space with
         | Mat.Rows_edges | Mat.Rows_compact_src | Mat.Rows_compact_dst -> true
         | Mat.Rows_nodes -> false)
  | Ir.Assign (Ir.Cur_node, n, _), Ts.Node_map ->
      String.equal n b.Plan.name && b.Plan.space = Mat.Rows_nodes
  | _ -> false

let rec fully_defined_by (b : Plan.buffer) step =
  let n = b.Plan.name in
  match step with
  | Plan.Fused { Plan.members; _ } -> (
      (* within a fused group the members still run in order: the buffer is
         fully defined iff the first member touching it fully defines it *)
      match List.find_opt (fun m -> List.mem n (step_vars m)) members with
      | Some m -> fully_defined_by b m
      | None -> false)
  | Plan.Gemm { Gs.task; _ } ->
      (* an assigning task runs one segment per node (edge) type, which
         covers every row of its output space *)
      let acc = Gs.accesses task in
      List.exists (function Ir.Assigned (_, m) -> String.equal m n | _ -> false) acc && not (reads n acc)
  | Plan.Weight_op _ | Plan.Fallback _ -> false
  | Plan.Traversal { Ts.strategy; body; _ } ->
      (not (reads n (Ir.accesses body))) && List.exists (covering_assign b strategy) body

(* --- interval coloring ---------------------------------------------- *)

type slot_state = {
  id : int;
  mutable last_use : int;
  space : Mat.space;  (* of the first member, for best-fit preference *)
  dim : int;
}

let analyze ~(buffers : Plan.buffer list) ~steps : Plan.memory =
  let steps = Array.of_list steps in
  let touched = Array.map step_vars steps in
  let first = Hashtbl.create 16 and last = Hashtbl.create 16 in
  Array.iteri
    (fun i ns ->
      List.iter
        (fun n ->
          if not (Hashtbl.mem first n) then Hashtbl.add first n i;
          Hashtbl.replace last n i)
        ns)
    touched;
  let interval n =
    match Hashtbl.find_opt first n with
    | Some f -> (f, Hashtbl.find last n)
    | None -> (-1, -1)
  in
  (* color in order of first touch so "free before my first use" is the
     only disjointness condition a candidate slot must satisfy *)
  let order =
    List.stable_sort
      (fun (a : Plan.buffer) (b : Plan.buffer) ->
        compare (fst (interval a.Plan.name)) (fst (interval b.Plan.name)))
      buffers
  in
  let next_slot = ref 0 in
  let shareable : slot_state list ref = ref [] in
  let assignment = Hashtbl.create 16 in
  List.iter
    (fun (b : Plan.buffer) ->
      let f, l = interval b.Plan.name in
      let fresh ~shared =
        let id = !next_slot in
        incr next_slot;
        if shared then
          shareable := { id; last_use = l; space = b.Plan.space; dim = b.Plan.dim } :: !shareable;
        id
      in
      let slot =
        if (not b.Plan.temp) || f < 0 then
          (* outputs live to the end of the run and untouched buffers have
             no interval to reason about: dedicated storage *)
          fresh ~shared:false
        else begin
          (* strict <: a slot freed after step [last_use] is rebindable
             from step [last_use + 1] on *)
          let free = List.filter (fun s -> s.last_use < f) !shareable in
          let pick p = List.find_opt p free in
          let candidate =
            match pick (fun s -> s.space = b.Plan.space && s.dim = b.Plan.dim) with
            | Some s -> Some s
            | None -> (
                match pick (fun s -> s.space = b.Plan.space) with
                | Some s -> Some s
                | None -> ( match pick (fun s -> s.dim = b.Plan.dim) with Some s -> Some s | None -> pick (fun _ -> true)))
          in
          match candidate with
          | Some s ->
              s.last_use <- l;
              s.id
          | None -> fresh ~shared:true
        end
      in
      Hashtbl.replace assignment b.Plan.name slot)
    order;
  let placements =
    List.map
      (fun (b : Plan.buffer) ->
        let f, l = interval b.Plan.name in
        let uninit_ok =
          (not b.Plan.zero_init) && f >= 0 && fully_defined_by b steps.(f)
        in
        { Plan.var = b.Plan.name; slot = Hashtbl.find assignment b.Plan.name; first = f; last = l; uninit_ok })
      buffers
  in
  { Plan.placements; num_slots = !next_slot }
