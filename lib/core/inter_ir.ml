type entity = Cur_edge | Cur_node | Src | Dst

type wslice = By_etype | By_src_ntype | By_dst_ntype | By_ntype | Shared

type unop = Exp | Neg | Reciprocal | Leaky_relu | Relu | Rsqrt | Leaky_relu_grad | Relu_grad

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Feature of entity * string
  | Data of entity * string
  | Weight of string * wslice
  | Linear of expr * expr
  | Linear_t of expr * expr
  | Inner of expr * expr
  | Concat of expr * expr
  | Slice of expr * int * int
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Opaque of string * expr list

type loop_kind = Edges | Nodes | Incoming | Outgoing

type stmt =
  | Assign of entity * string * expr
  | Accumulate of entity * string * expr
  | Grad_weight of { name : string; x : expr; dy : expr }
  | For_each of loop_kind * stmt list

type decl =
  | Weight_mat of { name : string; slice : wslice; rows : int; cols : int }
  | Weight_vec of { name : string; slice : wslice; dim : int }
  | Node_input of { name : string; dim : int }
  | Edge_input of { name : string; dim : int }

type program = { name : string; decls : decl list; body : stmt list; outputs : string list }

let decl_name = function
  | Weight_mat { name; _ } | Weight_vec { name; _ } | Node_input { name; _ } | Edge_input { name; _ }
    -> name

let find_decl p name = List.find_opt (fun d -> String.equal (decl_name d) name) p.decls

let rec map_expr f e =
  let e' =
    match e with
    | Const _ | Feature _ | Data _ | Weight _ -> e
    | Linear (a, b) -> Linear (map_expr f a, map_expr f b)
    | Linear_t (a, b) -> Linear_t (map_expr f a, map_expr f b)
    | Inner (a, b) -> Inner (map_expr f a, map_expr f b)
    | Concat (a, b) -> Concat (map_expr f a, map_expr f b)
    | Slice (a, lo, len) -> Slice (map_expr f a, lo, len)
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Unop (op, a) -> Unop (op, map_expr f a)
    | Opaque (name, args) -> Opaque (name, List.map (map_expr f) args)
  in
  f e'

let rec iter_expr f e =
  f e;
  match e with
  | Const _ | Feature _ | Data _ | Weight _ -> ()
  | Linear (a, b) | Linear_t (a, b) | Inner (a, b) | Concat (a, b) | Binop (_, a, b) ->
      iter_expr f a;
      iter_expr f b
  | Unop (_, a) | Slice (a, _, _) -> iter_expr f a
  | Opaque (_, args) -> List.iter (iter_expr f) args

let exists_expr pred e =
  let found = ref false in
  iter_expr (fun sub -> if pred sub then found := true) e;
  !found

let rec stmt_exprs = function
  | Assign (_, _, e) | Accumulate (_, _, e) -> [ e ]
  | Grad_weight { x; dy; _ } -> [ x; dy ]
  | For_each (_, body) -> List.concat_map stmt_exprs body

let rec map_stmt_exprs f = function
  | Assign (ent, name, e) -> Assign (ent, name, map_expr f e)
  | Accumulate (ent, name, e) -> Accumulate (ent, name, map_expr f e)
  | Grad_weight { name; x; dy } -> Grad_weight { name; x = map_expr f x; dy = map_expr f dy }
  | For_each (kind, body) -> For_each (kind, List.map (map_stmt_exprs f) body)

let map_program_exprs f p = { p with body = List.map (map_stmt_exprs f) p.body }

type var = [ `Node | `Edge ] * string

(* The scope of a produced variable: writes through Cur_edge live on edges,
   everything else (Cur_node, Src, Dst) lives on nodes. *)
let scope_of_target ent : [ `Node | `Edge ] =
  match ent with Cur_edge -> `Edge | Cur_node | Src | Dst -> `Node

(* --- access facts --- *)

type access =
  | Read_input of entity * string
  | Read_data of entity * string
  | Assigned of entity * string
  | Accumulated of entity * string
  | Weight_grad of string

let access_name = function
  | Read_input (_, n) | Read_data (_, n) | Assigned (_, n) | Accumulated (_, n) | Weight_grad n -> n

(* The walks below build each list in reverse, one cons per fact. *)
let rec rev_reads acc = function
  | Feature (ent, n) -> Read_input (ent, n) :: acc
  | Data (ent, n) -> Read_data (ent, n) :: acc
  | Const _ | Weight _ -> acc
  | Linear (a, b) | Linear_t (a, b) | Inner (a, b) | Concat (a, b) | Binop (_, a, b) ->
      rev_reads (rev_reads acc a) b
  | Slice (a, _, _) | Unop (_, a) -> rev_reads acc a
  | Opaque (_, args) -> List.fold_left rev_reads acc args

let rec rev_accesses acc = function
  | Assign (ent, n, e) -> Assigned (ent, n) :: rev_reads acc e
  | Accumulate (ent, n, e) -> Accumulated (ent, n) :: rev_reads acc e
  | Grad_weight { name; x; dy } -> Weight_grad name :: rev_reads (rev_reads acc x) dy
  | For_each (_, body) -> List.fold_left rev_accesses acc body

let expr_reads e = List.rev (rev_reads [] e)
let stmt_accesses s = List.rev (rev_accesses [] s)
let accesses body = List.rev (List.fold_left rev_accesses [] body)
let rec leaves body = List.concat_map (function For_each (_, b) -> leaves b | s -> [ s ]) body

let defs p =
  List.fold_left
    (fun vs a ->
      match a with
      | Assigned (ent, n) | Accumulated (ent, n) ->
          let v = (scope_of_target ent, n) in
          if List.mem v vs then vs else v :: vs
      | Read_input _ | Read_data _ | Weight_grad _ -> vs)
    [] (accesses p.body)
  |> List.rev

let uses acc ((scope, name) : var) =
  List.fold_left
    (fun k a ->
      match a with
      | Read_data (ent, n) when String.equal n name && scope_of_target ent = scope -> k + 1
      | _ -> k)
    0 acc

(* --- receptive depth --- *)

exception Uncovered

(* A node value of depth [k] at node [n] reads only the in-edges of the
   nodes within [k - 1] in-hops of [n], with their endpoints' inputs; an
   edge value's depth counts from its destination.  Each top-level loop
   is iterated to a fixpoint, because an iteration reads what earlier
   iterations of the same loop wrote: a depth still rising after one
   round per variable the loop writes comes from a cycle through [Src],
   whose reach is unbounded. *)
let receptive_depth p =
  let depth : (var, int) Hashtbl.t = Hashtbl.create 16 in
  let var_depth v = match Hashtbl.find_opt depth v with Some d -> d | None -> raise Uncovered in
  let changed = ref false in
  let define v d =
    if d > var_depth v then begin
      Hashtbl.replace depth v d;
      changed := true
    end
  in
  (* [kind] is the innermost enclosing loop *)
  let read kind ent d =
    match (kind, ent) with
    | (Edges | Incoming), Src -> d + 1
    | (Edges | Incoming), (Dst | Cur_edge) | (Nodes | Incoming), Cur_node -> d
    | _ -> raise Uncovered
  in
  let rec expr kind = function
    | Const _ | Weight _ -> 0
    | Feature (ent, _) -> read kind ent 0
    | Data (ent, name) -> read kind ent (var_depth (scope_of_target ent, name))
    | Linear (a, b) | Linear_t (a, b) | Inner (a, b) | Concat (a, b) | Binop (_, a, b) ->
        max (expr kind a) (expr kind b)
    | Slice (a, _, _) | Unop (_, a) -> expr kind a
    | Opaque (_, args) -> List.fold_left (fun acc a -> max acc (expr kind a)) 0 args
  in
  let rec stmt kind s =
    match (kind, s) with
    | (Edges | Incoming), (Assign (Cur_edge, n, e) | Accumulate (Cur_edge, n, e)) ->
        define (`Edge, n) (expr kind e)
    | (Edges | Incoming), (Assign (Dst, n, e) | Accumulate (Dst, n, e))
    | Incoming, Accumulate (Cur_node, n, e) ->
        define (`Node, n) (max 1 (expr kind e))
    | Nodes, (Assign (Cur_node, n, e) | Accumulate (Cur_node, n, e)) ->
        define (`Node, n) (expr kind e)
    | Nodes, For_each (Incoming, body) -> List.iter (stmt Incoming) body
    | _ -> raise Uncovered
  in
  let loop s =
    match s with
    | For_each (((Edges | Nodes) as kind), body) ->
        let vars = defs { p with body = [ s ] } in
        (* a variable read before the loop first writes it starts at 0 *)
        List.iter (fun v -> if not (Hashtbl.mem depth v) then Hashtbl.replace depth v 0) vars;
        let rec settle rounds =
          changed := false;
          List.iter (stmt kind) body;
          if !changed then if rounds = 0 then raise Uncovered else settle (rounds - 1)
        in
        settle (List.length vars)
    | _ -> raise Uncovered
  in
  match
    List.iter loop p.body;
    List.map (fun o -> var_depth (`Node, o)) p.outputs
  with
  | [] -> None
  | ds -> Some (List.fold_left max 0 ds)
  | exception Uncovered -> None

(* --- printing (Listing-1 style) --- *)

let entity_prefix = function
  | Cur_edge -> "e"
  | Cur_node -> "n"
  | Src -> "e.src"
  | Dst -> "e.dst"

let slice_suffix = function
  | By_etype -> "[e.etype]"
  | By_src_ntype -> "[τ(e.src)]"
  | By_dst_ntype -> "[τ(e.dst)]"
  | By_ntype -> "[n.ntype]"
  | Shared -> ""

let unop_name = function
  | Exp -> "exp"
  | Neg -> "neg"
  | Reciprocal -> "reciprocal"
  | Leaky_relu -> "leakyrelu"
  | Relu -> "relu"
  | Rsqrt -> "rsqrt"
  | Leaky_relu_grad -> "leakyrelu_grad"
  | Relu_grad -> "relu_grad"

let binop_symbol = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp_expr fmt = function
  | Const c -> Format.fprintf fmt "%g" c
  | Feature (ent, name) ->
      if String.equal name "feature" then Format.fprintf fmt "%s.feature" (entity_prefix ent)
      else Format.fprintf fmt "%s.input[%S]" (entity_prefix ent) name
  | Data (ent, name) -> Format.fprintf fmt "%s[%S]" (entity_prefix ent) name
  | Weight (name, slice) -> Format.fprintf fmt "%s%s" name (slice_suffix slice)
  | Linear (x, w) -> Format.fprintf fmt "linear(%a, %a)" pp_expr x pp_expr w
  | Linear_t (x, w) -> Format.fprintf fmt "linear_t(%a, %a)" pp_expr x pp_expr w
  | Inner (a, b) -> Format.fprintf fmt "inner(%a, %a)" pp_expr a pp_expr b
  | Concat (a, b) -> Format.fprintf fmt "concat(%a, %a)" pp_expr a pp_expr b
  | Slice (a, lo, len) -> Format.fprintf fmt "%a[%d:%d]" pp_expr a lo (lo + len)
  | Binop (op, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_symbol op) pp_expr b
  | Unop (op, a) -> Format.fprintf fmt "%s(%a)" (unop_name op) pp_expr a
  | Opaque (name, args) ->
      Format.fprintf fmt "%s(%a)" name
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_expr)
        args

let loop_header = function
  | Edges -> "for e in g.edges():"
  | Nodes -> "for n in g.nodes():"
  | Incoming -> "for e in n.incoming_edges():"
  | Outgoing -> "for e in n.outgoing_edges():"

let rec pp_stmt_indent indent fmt stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Assign (ent, name, e) ->
      Format.fprintf fmt "%s%s[%S] = %a" pad (entity_prefix ent) name pp_expr e
  | Accumulate (ent, name, e) ->
      Format.fprintf fmt "%s%s[%S] += %a" pad (entity_prefix ent) name pp_expr e
  | Grad_weight { name; x; dy } ->
      Format.fprintf fmt "%sgrad[%S] += outer(%a, %a)" pad name pp_expr x pp_expr dy
  | For_each (kind, body) ->
      Format.fprintf fmt "%s%s" pad (loop_header kind);
      List.iter (fun s -> Format.fprintf fmt "@,%a" (pp_stmt_indent (indent + 2)) s) body

let pp_stmt fmt stmt = Format.fprintf fmt "@[<v>%a@]" (pp_stmt_indent 0) stmt

let pp_decl fmt = function
  | Weight_mat { name; slice; rows; cols } ->
      Format.fprintf fmt "weight %s%s : %dx%d" name (slice_suffix slice) rows cols
  | Weight_vec { name; slice; dim } ->
      Format.fprintf fmt "weight %s%s : vec %d" name (slice_suffix slice) dim
  | Node_input { name; dim } -> Format.fprintf fmt "node input %s : %d" name dim
  | Edge_input { name; dim } -> Format.fprintf fmt "edge input %s : %d" name dim

let pp_program fmt p =
  Format.fprintf fmt "@[<v># program %s@," p.name;
  List.iter (fun d -> Format.fprintf fmt "# %a@," pp_decl d) p.decls;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt p.body;
  if p.outputs <> [] then
    Format.fprintf fmt "@,# outputs: %s" (String.concat ", " p.outputs);
  Format.fprintf fmt "@]"

let fingerprint p = Digest.to_hex (Digest.string (Format.asprintf "%a" pp_program p))
