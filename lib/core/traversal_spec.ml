type strategy = Edge_parallel | Node_gather | Node_map

type schedule = { warp_accumulate : bool }

let default_schedule = { warp_accumulate = true }

type t = {
  kid : int;
  strategy : strategy;
  body : Inter_ir.stmt list;
  locals : string list;
  schedule : schedule;
}

let name t = Printf.sprintf "traversal_%d" t.kid

let has_atomic_updates t =
  t.strategy = Edge_parallel
  &&
  let rec stmt_atomic = function
    | Inter_ir.Accumulate ((Inter_ir.Src | Inter_ir.Dst), _, _) -> true
    | Inter_ir.Grad_weight _ -> true
    | Inter_ir.Assign _ | Inter_ir.Accumulate _ -> false
    | Inter_ir.For_each (_, body) -> List.exists stmt_atomic body
  in
  List.exists stmt_atomic t.body

let strategy_name = function
  | Edge_parallel -> "edge-parallel"
  | Node_gather -> "node-gather"
  | Node_map -> "node-map"

let pp fmt t =
  Format.fprintf fmt "@[<v>traversal_%d (%s%s%s):" t.kid (strategy_name t.strategy)
    (if t.schedule.warp_accumulate && has_atomic_updates t then ", warp-accumulate" else "")
    (match t.locals with [] -> "" | ls -> Printf.sprintf ", locals: %s" (String.concat "," ls));
  List.iter (fun s -> Format.fprintf fmt "@,  %a" Inter_ir.pp_stmt s) t.body;
  Format.fprintf fmt "@]"
