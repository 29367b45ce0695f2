open Inter_ir

type shape = Sc | Vec of int

type var_info = { scope : [ `Node | `Edge ]; name : string; shape : shape; accumulated : bool }

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let shape_dim = function Sc -> 1 | Vec n -> n

let pp_shape fmt = function Sc -> Format.fprintf fmt "scalar" | Vec n -> Format.fprintf fmt "vec<%d>" n

(* Loop context: which entities are in scope. *)
type ctx = Ctx_edge | Ctx_node | Ctx_node_inner

let entity_valid ctx ent =
  match (ctx, ent) with
  | Ctx_edge, (Cur_edge | Src | Dst) -> true
  | Ctx_edge, Cur_node -> false
  | Ctx_node, Cur_node -> true
  | Ctx_node, (Cur_edge | Src | Dst) -> false
  | Ctx_node_inner, _ -> true

let slice_valid ctx = function
  | By_ntype -> ctx = Ctx_node
  | By_etype | By_src_ntype | By_dst_ntype -> ctx = Ctx_edge || ctx = Ctx_node_inner
  | Shared -> true

let entity_str ent = Inter_ir.entity_prefix ent

type state = {
  program : program;
  mutable vars : var_info list;  (* reverse definition order *)
}

let find_var st scope name =
  List.find_opt (fun v -> v.scope = scope && String.equal v.name name) st.vars

let scope_of ent : [ `Node | `Edge ] = match ent with Cur_edge -> `Edge | _ -> `Node

(* --- the width rules, shared by [infer_expr] (which validates first)
   and [width] (which does not) --- *)

(* Declared inputs and weight vectors of dimension 1 read as scalars. *)
let of_dim d = if d = 1 then Sc else Vec d

let shape_of_decl = function
  | Weight_mat { rows; cols; _ } -> Vec (rows * cols)
  | Weight_vec { dim; _ } | Node_input { dim; _ } | Edge_input { dim; _ } -> of_dim dim

(* A row times a [rows × cols] matrix, or its transpose. *)
let linear_shape ~transpose ~rows ~cols = of_dim (if transpose then rows else cols)

(* Pointwise operands broadcast a scalar; two vectors have one width (the
   larger, where [infer_expr] has not already refused a mismatch). *)
let pointwise sa sb = if shape_dim sa >= shape_dim sb then sa else sb

let concat_shape sa sb = Vec (shape_dim sa + shape_dim sb)

let width (p : program) ~read expr =
  let rec go = function
    | Const _ | Inner _ -> Sc
    | Feature (ent, n) | Data (ent, n) -> read ent n
    | Weight (n, _) -> (
        match find_decl p n with
        | Some ((Weight_mat _ | Weight_vec _) as d) -> shape_of_decl d
        | _ -> Sc)
    | (Linear (x, w) | Linear_t (x, w)) as e -> (
        match w with
        | Weight (n, _) -> (
            match find_decl p n with
            | Some (Weight_mat { rows; cols; _ }) ->
                linear_shape ~transpose:(match e with Linear_t _ -> true | _ -> false) ~rows ~cols
            | _ -> Sc)
        | _ -> go x)
    | Concat (a, b) -> concat_shape (go a) (go b)
    | Slice (_, _, len) -> of_dim len
    | Binop (_, a, b) -> pointwise (go a) (go b)
    | Unop (_, a) -> go a
    | Opaque (_, args) -> ( match args with [] -> Sc | a :: _ -> go a)
  in
  go expr

let rec infer_expr st ctx expr =
  match expr with
  | Const _ -> Sc
  | Feature (ent, name) -> (
      if not (entity_valid ctx ent) then fail "entity %s out of scope in feature read" (entity_str ent);
      match find_decl st.program name with
      | Some (Node_input { dim; _ }) ->
          if scope_of ent = `Edge then fail "node input %S read through edge entity" name;
          of_dim dim
      | Some (Edge_input { dim; _ }) ->
          if ent <> Cur_edge then fail "edge input %S must be read through e" name;
          of_dim dim
      | Some _ -> fail "%S is a weight, not an input feature" name
      | None -> fail "undeclared input feature %S" name)
  | Data (ent, name) -> (
      if not (entity_valid ctx ent) then fail "entity %s out of scope in data read" (entity_str ent);
      match find_var st (scope_of ent) name with
      | Some v -> v.shape
      | None ->
          fail "%s data %S read before definition"
            (match scope_of ent with `Node -> "node" | `Edge -> "edge")
            name)
  | Weight (name, slice) -> (
      if not (slice_valid ctx slice) then fail "weight %S sliced %s in wrong context" name
          (match slice with
          | By_ntype -> "by n.ntype"
          | By_etype -> "by e.etype"
          | By_src_ntype -> "by τ(e.src)"
          | By_dst_ntype -> "by τ(e.dst)"
          | Shared -> "shared");
      match find_decl st.program name with
      | Some ((Weight_mat { slice = s; _ } | Weight_vec { slice = s; _ }) as d) ->
          let compatible =
            s = slice
            (* a node-typed stack may be sliced edge-wise by either
               endpoint's type (HGT's K_τ(s) used per edge) *)
            || (s = By_ntype && (slice = By_src_ntype || slice = By_dst_ntype))
          in
          if not compatible then fail "weight %S declared with a different slicing" name;
          shape_of_decl d
      | Some _ -> fail "%S is an input, not a weight" name
      | None -> fail "undeclared weight %S" name)
  | Linear (x, w) | Linear_t (x, w) -> (
      let xs = infer_expr st ctx x in
      match w with
      | Weight (name, _) -> (
          ignore (infer_expr st ctx w);
          match find_decl st.program name with
          | Some (Weight_mat { rows; cols; _ }) ->
              let transpose = match expr with Linear_t _ -> true | _ -> false in
              let in_dim = if transpose then cols else rows in
              if shape_dim xs <> in_dim then
                fail "linear: input %a does not match weight %S dim %d"
                  (fun fmt -> pp_shape fmt) xs name in_dim;
              linear_shape ~transpose ~rows ~cols
          | _ -> fail "linear: %S must be a weight matrix" name)
      | _ -> fail "linear: second operand must be a weight slice")
  | Inner (a, b) ->
      let sa = infer_expr st ctx a and sb = infer_expr st ctx b in
      if shape_dim sa <> shape_dim sb then
        fail "inner: dimension mismatch %d vs %d" (shape_dim sa) (shape_dim sb);
      Sc
  | Concat (a, b) ->
      let sa = infer_expr st ctx a and sb = infer_expr st ctx b in
      concat_shape sa sb
  | Slice (a, lo, len) ->
      let sa = infer_expr st ctx a in
      if lo < 0 || len <= 0 || lo + len > shape_dim sa then
        fail "slice [%d, %d) out of vector of dim %d" lo (lo + len) (shape_dim sa);
      of_dim len
  | Binop (_, a, b) -> (
      let sa = infer_expr st ctx a and sb = infer_expr st ctx b in
      match (sa, sb) with
      | Vec n, Vec m when n <> m -> fail "binop: dimension mismatch %d vs %d" n m
      | _ -> pointwise sa sb)
  | Unop (_, a) -> infer_expr st ctx a
  | Opaque (_, args) -> (
      match args with [] -> Sc | first :: rest ->
        let s = infer_expr st ctx first in
        List.iter (fun a -> ignore (infer_expr st ctx a)) rest;
        s)

let record_write st ctx ~accumulate ent name shape =
  if not (entity_valid ctx ent) then fail "entity %s out of scope in write" (entity_str ent);
  (match (ctx, ent, accumulate) with
  | Ctx_edge, Cur_edge, _ -> ()
  | Ctx_edge, (Src | Dst), true -> ()
  | Ctx_edge, (Src | Dst), false -> fail "node data %S in an edge loop must use +=" name
  | Ctx_edge, Cur_node, _ -> assert false
  | Ctx_node, Cur_node, _ -> ()
  | Ctx_node, _, _ -> assert false
  | Ctx_node_inner, Cur_node, true -> ()
  | Ctx_node_inner, Cur_node, false ->
      fail "node data %S inside an incoming/outgoing loop must use +=" name
  | Ctx_node_inner, Cur_edge, _ -> ()
  | Ctx_node_inner, (Src | Dst), _ -> fail "cannot write through %s here" (entity_str ent));
  let scope = scope_of ent in
  match find_var st scope name with
  | Some v ->
      if shape_dim v.shape <> shape_dim shape then
        fail "variable %S redefined with shape %a (was %a)" name
          (fun fmt -> pp_shape fmt) shape
          (fun fmt -> pp_shape fmt) v.shape;
      if accumulate && not v.accumulated then
        st.vars <-
          List.map (fun w -> if w.scope = scope && String.equal w.name name then { w with accumulated = true } else w) st.vars
  | None -> st.vars <- { scope; name; shape; accumulated = accumulate } :: st.vars

let rec check_stmt st ctx stmt =
  match stmt with
  | Assign (ent, name, e) ->
      let shape = infer_expr st ctx e in
      record_write st ctx ~accumulate:false ent name shape
  | Accumulate (ent, name, e) ->
      let shape = infer_expr st ctx e in
      record_write st ctx ~accumulate:true ent name shape
  | Grad_weight { name; x; dy } -> (
      ignore (infer_expr st ctx x);
      ignore (infer_expr st ctx dy);
      match find_decl st.program name with
      | Some (Weight_mat _ | Weight_vec _) -> ()
      | Some _ -> fail "grad target %S is not a weight" name
      | None -> fail "grad target %S undeclared" name)
  | For_each (kind, body) -> (
      match (ctx, kind) with
      | _, (Incoming | Outgoing) -> fail "incoming/outgoing loop must be nested in a node loop"
      | _ -> check_toplevel_loop st kind body)

and check_toplevel_loop st kind body =
  match kind with
  | Edges -> List.iter (check_stmt st Ctx_edge) body
  | Nodes ->
      List.iter
        (fun s ->
          match s with
          | For_each ((Incoming | Outgoing), inner) -> List.iter (check_stmt st Ctx_node_inner) inner
          | For_each (_, _) -> fail "only incoming/outgoing loops may nest in a node loop"
          | _ -> check_stmt st Ctx_node s)
        body
  | Incoming | Outgoing -> fail "incoming/outgoing loop must be nested in a node loop"

let check p =
  try
    (* unique declaration names *)
    let names = List.map decl_name p.decls in
    let rec dup = function
      | [] -> ()
      | n :: rest -> if List.mem n rest then fail "duplicate declaration %S" n else dup rest
    in
    dup names;
    let st = { program = p; vars = [] } in
    List.iter
      (fun s ->
        match s with
        | For_each (kind, body) -> check_toplevel_loop st kind body
        | _ -> fail "top-level statements must be foreach loops")
      p.body;
    List.iter
      (fun out ->
        match find_var st `Node out with
        | Some _ -> ()
        | None -> fail "output %S is not a produced node variable" out)
      p.outputs;
    Ok (List.rev st.vars)
  with Error msg -> Result.Error (Printf.sprintf "%s: %s" p.name msg)

let check_exn p = match check p with Ok v -> v | Error msg -> invalid_arg msg
