type strategy = Edge_parallel | Node_gather | Node_map

type schedule = { warp_accumulate : bool }

let default_schedule = { warp_accumulate = true }

type side = [ `Src | `Dst ]

type pair_item = Pair_stmt of Inter_ir.stmt | Pair_reduction of Inter_ir.expr

type pair_loop = { side : side; items : pair_item list }

type pass = { pair_loops : pair_loop list; sweep : Inter_ir.stmt list; parallel_safe : bool }

type t = {
  kid : int;
  strategy : strategy;
  body : Inter_ir.stmt list;
  locals : string list;
  schedule : schedule;
  passes : pass list;
}

let name t = Printf.sprintf "traversal_%d" t.kid

let has_atomic_updates t =
  t.strategy = Edge_parallel
  && List.exists
       (function
         | Inter_ir.Accumulated ((Inter_ir.Src | Inter_ir.Dst), _) | Inter_ir.Weight_grad _ -> true
         | _ -> false)
       (Inter_ir.accesses t.body)

let strategy_name = function
  | Edge_parallel -> "edge-parallel"
  | Node_gather -> "node-gather"
  | Node_map -> "node-map"

let pair_side passes st =
  let runs l = List.exists (function Pair_stmt s -> s == st || s = st | Pair_reduction _ -> false) l.items in
  List.find_map (fun p -> Option.map (fun l -> l.side) (List.find_opt runs p.pair_loops)) passes

let side_name = function `Src -> "src" | `Dst -> "dst"

let pp fmt t =
  Format.fprintf fmt "@[<v>traversal_%d (%s%s%s):" t.kid (strategy_name t.strategy)
    (if t.schedule.warp_accumulate && has_atomic_updates t then ", warp-accumulate" else "")
    (match t.locals with [] -> "" | ls -> Printf.sprintf ", locals: %s" (String.concat "," ls));
  let stmts pad = List.iter (Format.fprintf fmt "@,%s%a" pad Inter_ir.pp_stmt) in
  (match t.passes with
  | [] | [ { pair_loops = []; _ } ] -> stmts "  " t.body
  | passes ->
      List.iteri
        (fun i p ->
          Format.fprintf fmt "@,  pass %d:" i;
          List.iter
            (fun l ->
              Format.fprintf fmt "@,    %s pairs:" (side_name l.side);
              List.iter
                (function
                  | Pair_stmt s -> stmts "      " [ s ]
                  | Pair_reduction e -> Format.fprintf fmt "@,      reduce %a" Inter_ir.pp_expr e)
                l.items)
            p.pair_loops;
          if p.sweep <> [] then begin
            Format.fprintf fmt "@,    %s sweep (%s):"
              (if t.strategy = Node_map then "node" else "edge")
              (if p.parallel_safe then "parallel" else "sequential");
            stmts "      " p.sweep
          end)
        passes);
  Format.fprintf fmt "@]"
