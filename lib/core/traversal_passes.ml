(* Traversal passes, decided once per compilation from the plan alone
   (DESIGN.md, "Staged traversals"). *)

module Ir = Inter_ir
module Ts = Traversal_spec
module Mat = Materialization

let lookup (plan : Plan.t) n =
  match (List.assoc_opt (`Edge, n) plan.Plan.spaces, List.assoc_opt (`Node, n) plan.Plan.spaces) with
  | Some s, _ | None, Some s -> Some s
  | None, None -> (
      match Ir.find_decl plan.Plan.program n with
      | Some (Ir.Node_input _) -> Some Mat.Rows_nodes
      | Some (Ir.Edge_input _) -> Some Mat.Rows_edges
      | _ -> None)

(* The side analysis: [src]/[dst], every read is constant on (etype, src)
   / (etype, dst) pairs; [anchored], some read depends on the pair;
   [grads], where each upstream gradient read lives — summed over one
   side's pairs ([`Src]/[`Dst], a compact row) or not; [pure], no
   constant or opaque call, so [=] on two such expressions is equality of
   what they compute ([0.0 = -0.0]).  [space n] is [None] for a local. *)
type sides = {
  mutable src : bool;
  mutable dst : bool;
  mutable anchored : bool;
  mutable grads : [ `Src | `Dst | `Other ] list;
  mutable pure : bool;
}

let read_sides ~space s expr =
  Ir.iter_expr
    (function
      | Ir.Feature (ent, n) | Ir.Data (ent, n) ->
          let side =
            match (ent, if ent = Ir.Cur_edge then space n else None) with
            | Ir.Src, _ | Ir.Cur_edge, Some Mat.Rows_compact_src -> `Src
            | Ir.Dst, _ | Ir.Cur_edge, Some Mat.Rows_compact_dst -> `Dst
            | _ -> `Other
          in
          (match side with
          | `Src -> s.dst <- false; s.anchored <- true
          | `Dst -> s.src <- false; s.anchored <- true
          | `Other -> s.src <- false; s.dst <- false);
          if Autodiff.is_grad_name n then s.grads <- (if ent = Ir.Cur_edge then side else `Other) :: s.grads
      | Ir.Weight (_, Ir.By_src_ntype) -> s.dst <- false
      | Ir.Weight (_, Ir.By_dst_ntype) -> s.src <- false
      | Ir.Weight (_, Ir.By_ntype) -> s.src <- false; s.dst <- false
      | Ir.Const _ | Ir.Opaque _ -> s.pure <- false
      | _ -> ())
    expr

let sides_of ~space exprs =
  let s = { src = true; dst = true; anchored = false; grads = []; pure = true } in
  List.iter (read_sides ~space s) exprs;
  s

(* The side whose pairs a statement runs once per (§3.1.3): an assign of
   a pair-constant value into its side's compact row, or an accumulation
   whose upstream gradients are all summed over the side's pairs (per
   edge, it would count each pair's sum once per edge). *)
let pair_local ~space st =
  let s = sides_of ~space (Ir.stmt_exprs st) in
  let target =
    match st with
    | Ir.Assign (Ir.Cur_edge, n, _) | Ir.Accumulate (Ir.Cur_edge, n, _) -> (
        match space n with Some Mat.Rows_compact_src -> `Src | Some Mat.Rows_compact_dst -> `Dst | _ -> `None)
    | Ir.Assign (Ir.Src, _, _) | Ir.Accumulate (Ir.Src, _, _) -> `Src
    | Ir.Assign (Ir.Dst, _, _) | Ir.Accumulate (Ir.Dst, _, _) -> `Dst
    | Ir.Assign _ | Ir.Accumulate _ | Ir.Grad_weight _ | Ir.For_each _ -> `None
  in
  let constant (side : Ts.side) = if side = `Src then s.src else s.dst in
  let summed (side : Ts.side) = s.grads <> [] && List.for_all (( = ) (side :> [ `Src | `Dst | `Other ])) s.grads in
  match (st, target) with
  | Ir.Assign (Ir.Cur_edge, _, _), ((`Src | `Dst) as side) when constant side && s.anchored -> Some side
  | Ir.Accumulate _, ((`Src | `Dst) as side) when constant side && summed side -> Some side
  | Ir.Grad_weight _, _ -> List.find_opt (fun side -> constant side && summed side) [ `Src; `Dst ]
  | _ -> None

(* What a statement touches: buffer rows, weight-gradient stacks. *)
type key = Row of string | Grad of string

(* A body statement with its pair side and its access facts. *)
type item = { st : Ir.stmt; pair : Ts.side option; acc : Ir.access list }

(* (name, entity) of every row a statement reads. *)
let row_reads acc =
  List.filter_map (function Ir.Read_input (ent, n) | Ir.Read_data (ent, n) -> Some (n, ent) | _ -> None) acc

(* (name, entity) of every row a statement writes. *)
let row_writes acc =
  List.filter_map (function Ir.Assigned (ent, n) | Ir.Accumulated (ent, n) -> Some (n, ent) | _ -> None) acc

let reads ~is_local acc =
  List.filter_map (fun (n, ent) -> if ent = Ir.Cur_edge && is_local n then None else Some (Row n)) (row_reads acc)

let writes ~is_local acc =
  List.filter_map
    (function
      | Ir.Assigned (ent, n) | Ir.Accumulated (ent, n) -> if ent = Ir.Cur_edge && is_local n then None else Some (Row n)
      | Ir.Weight_grad name -> Some (Grad name)
      | Ir.Read_input _ | Ir.Read_data _ -> None)
    acc

let meets a b = List.exists (fun x -> List.mem x b) a

(* The split rule (see the interface).  A pair-local statement conflicts
   with the statements its loop would move it ahead of: those already
   swept, and the other side's loop when its own runs first.  A register
   local read after a split is defined again in the later pass: its
   (pure, single-assignment) definitions are prepended, transitively. *)
let split ~space ~is_local items =
  let compact n = match space n with Some (Mat.Rows_compact_src | Mat.Rows_compact_dst) -> true | _ -> false in
  let touches = List.fold_left (fun (r, w) i -> (reads ~is_local i.acc @ r, writes ~is_local i.acc @ w)) ([], []) in
  (* [pass] is in reverse statement order *)
  let conflicts pass { pair; acc; _ } =
    let r = reads ~is_local acc and w = writes ~is_local acc in
    match pair with
    | Some side ->
        let first = List.find_map (fun i -> i.pair) (List.rev pass) in
        let ahead i = i.pair = None || (first = Some side && i.pair <> Some side) in
        let ar, aw = touches (List.filter ahead pass) in
        meets w (ar @ aw) || meets r aw
    | None ->
        let pr, pw = touches (List.filter (fun i -> i.pair <> None) pass) in
        meets w (pr @ pw) || meets (List.filter (function Row n -> not (compact n) | Grad _ -> true) r) pw
  in
  let dirty pass n =
    List.exists
      (fun i -> i.pair = None && List.mem (Ir.Accumulated (Ir.Cur_edge, n)) i.acc && compact n)
      pass
  in
  let reads_edge names acc = List.exists (fun (n, ent) -> ent = Ir.Cur_edge && names n) (row_reads acc) in
  let passes, last =
    List.fold_left
      (fun (passes, pass) item ->
        if pass <> [] && (reads_edge (dirty pass) item.acc || conflicts pass item) then
          (List.rev pass :: passes, [ item ])
        else (passes, item :: pass))
      ([], []) items
  in
  let defs =
    List.filter_map
      (fun i -> match i.st with Ir.Assign (Ir.Cur_edge, n, _) when is_local n -> Some (n, i) | _ -> None)
      items
  in
  let reads_local pass n = List.exists (fun i -> List.mem (Ir.Read_data (Ir.Cur_edge, n)) i.acc) pass in
  let rec close pass =
    match List.filter (fun (n, i) -> reads_local pass n && not (List.memq i pass)) defs with
    | [] -> pass
    | missing -> close (List.map snd missing @ pass)
  in
  List.rev_map close (if last = [] then passes else List.rev last :: passes)

(* The pair items of a pass in statement order: each pair-local
   statement, and each distinct hoisted reduction of a swept statement
   where it first occurs, with its side ([`Src] when both hold). *)
let pair_items ~space ~written ~hoist items =
  let side e =
    let s = sides_of ~space [ e ] in
    let reads_written = List.exists (fun a -> List.mem (Row (Ir.access_name a)) written) (Ir.expr_reads e) in
    if (not s.anchored) || (not s.pure) || reads_written then None
    else if s.src then Some `Src
    else if s.dst then Some `Dst
    else None
  in
  let found = ref [] in
  let rec walk e =
    match (e, side e) with
    | (Ir.Inner _ | Ir.Linear _ | Ir.Linear_t _), Some s ->
        if not (List.exists (fun (_, h) -> h = Ts.Pair_reduction e) !found) then
          found := (s, Ts.Pair_reduction e) :: !found
    | (Ir.Linear (x, _) | Ir.Linear_t (x, _) | Ir.Slice (x, _, _) | Ir.Unop (_, x)), _ -> walk x
    | (Ir.Inner (a, b) | Ir.Concat (a, b) | Ir.Binop (_, a, b)), _ -> walk a; walk b
    | Ir.Opaque (_, args), _ -> List.iter walk args
    | (Ir.Const _ | Ir.Feature _ | Ir.Data _ | Ir.Weight _), _ -> ()
  in
  List.iter
    (fun i ->
      match i.pair with
      | Some side -> found := (side, Ts.Pair_stmt i.st) :: !found
      | None -> if hoist then List.iter walk (Ir.stmt_exprs i.st))
    items;
  List.rev !found

(* May the sweep's weight-gradient statements run after its other
   statements, as a chunked sweep runs them?  Each reads no register
   local, and every row it reads is unwritten by the sweep or an edge row
   that only statements before it write, through [Cur_edge]: one edge per
   row, so the row holds after the sweep what it held when the statement
   would have run. *)
let grads_movable ~space ~is_local sweep =
  let sweep = List.mapi (fun i item -> (i, item)) sweep in
  let writers n =
    List.concat_map
      (fun (i, item) -> List.filter_map (fun (m, ent) -> if m = n then Some (i, ent) else None) (row_writes item.acc))
      sweep
  in
  List.for_all
    (function
      | i, { st = Ir.Grad_weight _; acc; _ } ->
          List.for_all
            (fun (n, ent) ->
              (not (is_local n))
              &&
              match writers n with
              | [] -> true
              | ws ->
                  ent = Ir.Cur_edge
                  && space n = Some Mat.Rows_edges
                  && List.for_all (fun (j, went) -> j < i && went = Ir.Cur_edge) ws)
            (row_reads acc)
      | _ -> true)
    sweep

(* May the sweep run in destination segments (node ranges for
   [Node_map]) without two domains touching one row?  The CSR's ascending
   edge order then keeps the sequential interleaving of every row, and
   the gradient statements, run after the segments in the sweep's order,
   add their terms in that order too. *)
let parallel_safe ~space ~is_local strategy sweep =
  let reads = List.concat_map (fun i -> List.filter (fun (n, _) -> not (is_local n)) (row_reads i.acc)) sweep in
  let writes =
    List.concat_map
      (fun i -> List.filter (fun (n, ent) -> not (ent = Ir.Cur_edge && is_local n)) (row_writes i.acc))
      sweep
  in
  let owned = function
    | Ir.Src -> false (* source rows cross destination segments *)
    | Ir.Dst -> true (* the partition key itself *)
    | Ir.Cur_node -> strategy <> Ts.Edge_parallel
    | Ir.Cur_edge -> false
  in
  let write_safe (n, ent) =
    match (ent, space n) with
    | Ir.Cur_edge, Some (Mat.Rows_edges | Mat.Rows_compact_dst) -> true (* one edge, or one dst, per row *)
    | _ -> owned ent
  in
  let conflict_safe (n, _) =
    let wents = List.filter_map (fun (m, e) -> if m = n then Some e else None) writes in
    List.for_all
      (fun (m, re) ->
        m <> n
        ||
        match (re, space n) with
        | (Ir.Dst | Ir.Cur_node), _ -> owned re && List.for_all (fun e -> e <> Ir.Cur_edge && owned e) wents
        | Ir.Cur_edge, Some (Mat.Rows_edges | Mat.Rows_compact_dst) -> List.for_all (( = ) Ir.Cur_edge) wents
        | _ -> false)
      reads
  in
  List.for_all (fun i -> match i.st with Ir.For_each _ -> false | _ -> true) sweep
  && List.for_all write_safe writes && List.for_all conflict_safe writes
  && grads_movable ~space ~is_local sweep

let of_body ~lookup ~locals ~fallback strategy body =
  let is_local n = List.mem n locals || lookup n = None in
  let space n = if is_local n then None else lookup n in
  let pair st = if strategy = Ts.Edge_parallel && not fallback then pair_local ~space st else None in
  let items = List.map (fun st -> { st; pair = pair st; acc = Ir.stmt_accesses st }) body in
  List.map
    (fun items ->
      let swept = List.filter (fun i -> i.pair = None) items in
      let written = List.concat_map (fun i -> writes ~is_local i.acc) items in
      let ordered = pair_items ~space ~written ~hoist:(strategy <> Ts.Node_map) items in
      let loop side =
        match List.filter_map (fun (s, it) -> if s = side then Some it else None) ordered with
        | [] -> []
        | items -> [ { Ts.side; items } ]
      in
      let first = List.find_map (fun i -> i.pair) items in
      let pair_loops = if first = Some `Dst then loop `Dst @ loop `Src else loop `Src @ loop `Dst in
      {
        Ts.pair_loops;
        sweep = List.map (fun i -> i.st) swept;
        parallel_safe = parallel_safe ~space ~is_local strategy swept;
      })
    (if fallback then [ items ] else split ~space ~is_local items)

let rec record_step ~lookup = function
  | Plan.Traversal t ->
      let passes = of_body ~lookup ~locals:t.Ts.locals ~fallback:false t.Ts.strategy t.Ts.body in
      Plan.Traversal { t with Ts.passes }
  | Plan.Fallback f ->
      Plan.Fallback { f with Plan.passes = of_body ~lookup ~locals:[] ~fallback:true f.Plan.strategy f.Plan.body }
  | Plan.Fused f -> Plan.Fused { f with Plan.members = List.map (record_step ~lookup) f.Plan.members }
  | (Plan.Weight_op _ | Plan.Gemm _) as s -> s

let record (plan : Plan.t) = { plan with Plan.steps = List.map (record_step ~lookup:(lookup plan)) plan.Plan.steps }
