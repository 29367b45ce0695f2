open Inter_ir

exception Unsupported of string

type result = { program : Inter_ir.program; reads_forward : Inter_ir.var list }

let grad_name n = "d:" ^ n

let is_grad_name n = String.length n > 2 && String.equal (String.sub n 0 2) "d:"

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* --- local shape inference (validation already done by Check) --- *)

(* [vars]: the forward variables' and their gradients' shapes *)
type shapes = { forward : program; vars : (var * Check.shape) list }

let shape_of sh expr =
  Check.width sh.forward expr ~read:(fun ent name ->
      match List.assoc_opt (scope_of_target ent, name) sh.vars with
      | Some s -> s
      | None -> (
          match find_decl sh.forward name with
          | Some d -> Check.shape_of_decl d
          | None -> unsupported "unknown shape of %S" name))

(* --- gradient rules --- *)

let rec diff sh expr g : stmt list =
  let is_scalar e = shape_of sh e = Check.Sc in
  match expr with
  | Const _ | Feature _ -> []
  | Data (ent, v) -> [ Accumulate (ent, grad_name v, g) ]
  | Weight (w, _) -> [ Grad_weight { name = w; x = Const 1.0; dy = g } ]
  | Linear (x, (Weight (w, _) as wref)) ->
      Grad_weight { name = w; x; dy = g } :: diff sh x (Linear_t (g, wref))
  | Linear_t (x, (Weight (w, _) as wref)) ->
      (* y = x·Wᵀ: dW_{rc} += g_r x_c, i.e. outer(g, x) *)
      Grad_weight { name = w; x = g; dy = x } :: diff sh x (Linear (g, wref))
  | Linear _ | Linear_t _ -> unsupported "linear against computed weight"
  | Inner (a, b) ->
      let side u other =
        match u with
        | Weight (w, _) -> [ Grad_weight { name = w; x = other; dy = g } ]
        | _ -> diff sh u (Binop (Mul, other, g))
      in
      side a b @ side b a
  | Concat (a, b) ->
      let da = Check.shape_dim (shape_of sh a) and db = Check.shape_dim (shape_of sh b) in
      diff sh a (Slice (g, 0, da)) @ diff sh b (Slice (g, da, db))
  | Slice _ -> unsupported "slice in forward code"
  | Binop (Add, a, b) -> diff sh a g @ diff sh b g
  | Binop (Sub, a, b) -> diff sh a g @ diff sh b (Unop (Neg, g))
  | Binop (Mul, a, b) ->
      let to_side u other =
        (* d_u = g ⊙ other, reduced to a scalar when u is scalar but the
           product is a vector *)
        let contrib =
          if is_scalar u && not (is_scalar other) then Inner (g, other)
          else Binop (Mul, g, other)
        in
        diff sh u contrib
      in
      to_side a b @ to_side b a
  | Binop (Div, a, b) ->
      (* y = a / b *)
      let da = if is_scalar a && not (is_scalar g) then Inner (g, Unop (Reciprocal, b)) else Binop (Div, g, b) in
      let db_full = Binop (Mul, g, Binop (Div, a, Binop (Mul, b, b))) in
      let db =
        if is_scalar b && not (is_scalar g) then
          Unop (Neg, Inner (g, Binop (Div, a, Binop (Mul, b, b))))
        else Unop (Neg, db_full)
      in
      diff sh a da @ diff sh b db
  | Unop (Exp, a) -> diff sh a (Binop (Mul, g, Unop (Exp, a)))
  | Unop (Neg, a) -> diff sh a (Unop (Neg, g))
  | Unop (Reciprocal, a) ->
      diff sh a (Unop (Neg, Binop (Div, g, Binop (Mul, a, a))))
  | Unop (Leaky_relu, a) -> diff sh a (Binop (Mul, g, Unop (Leaky_relu_grad, a)))
  | Unop (Relu, a) -> diff sh a (Binop (Mul, g, Unop (Relu_grad, a)))
  | Unop (Rsqrt, a) ->
      (* d/da a^{-1/2} = -1/2 a^{-3/2} *)
      diff sh a
        (Binop
           ( Mul,
             g,
             Binop (Mul, Const (-0.5), Binop (Mul, Unop (Rsqrt, a), Unop (Reciprocal, a))) ))
  | Unop ((Leaky_relu_grad | Relu_grad), _) -> unsupported "gradient of a gradient operator"
  | Opaque (n, _) -> unsupported "opaque operator %S" n

(* --- loop-level generation --- *)

(* node gradients scatter-accumulated by a statement (through Src/Dst) *)
let scattered_node_grads stmt =
  List.filter_map (function Accumulated ((Src | Dst), n) -> Some n | _ -> None) (stmt_accesses stmt)

let reads_node_grad stmt names =
  List.exists
    (function Read_data ((Src | Dst | Cur_node), n) -> List.mem n names | _ -> false)
    (stmt_accesses stmt)

(* Split a generated statement sequence into segments such that no segment
   reads a node gradient that the same segment scatter-accumulates. *)
let split_segments stmts =
  let segments, current, _ =
    List.fold_left
      (fun (segs, cur, pending) stmt ->
        if reads_node_grad stmt pending then (List.rev cur :: segs, [ stmt ], scattered_node_grads stmt)
        else (segs, stmt :: cur, pending @ scattered_node_grads stmt))
      ([], [], []) stmts
  in
  List.rev (List.rev current :: segments) |> List.filter (fun s -> s <> [])

let check_single_assignment p =
  ignore
    (List.fold_left
       (fun seen -> function
         | Assigned (ent, name) ->
             let key = (scope_of_target ent, name) in
             if List.mem key seen then unsupported "variable %S assigned more than once" name
             else key :: seen
         | _ -> seen)
       [] (accesses p.body))

let backward (p : program) =
  check_single_assignment p;
  let infos = Check.check_exn p in
  let var_shapes =
    List.map (fun (i : Check.var_info) -> ((i.Check.scope, i.Check.name), i.Check.shape)) infos
  in
  let grad_shapes =
    List.map (fun ((scope, n), s) -> ((scope, grad_name n), s)) var_shapes
  in
  let sh = { forward = p; vars = var_shapes @ grad_shapes } in
  let forward_accesses = accesses p.body in
  List.iter
    (fun o ->
      if uses forward_accesses (`Node, o) > 0 then
        unsupported "output %S is also read as an intermediate" o)
    p.outputs;
  let diff_stmt = function
    | Assign (ent, t, e) | Accumulate (ent, t, e) -> diff sh e (Data (ent, grad_name t))
    | Grad_weight _ -> unsupported "differentiating a gradient statement"
    | For_each _ -> assert false
  in
  let backward_loops =
    List.rev p.body
    |> List.concat_map (fun top ->
           match top with
           | For_each (kind, body) ->
               let stmts = List.concat_map diff_stmt (List.rev body) in
               List.map (fun seg -> For_each (kind, seg)) (split_segments stmts)
           | _ -> unsupported "non-loop top-level statement")
  in
  let output_dims =
    List.map
      (fun o ->
        match List.assoc_opt (`Node, o) var_shapes with
        | Some s -> (o, Check.shape_dim s)
        | None -> unsupported "output %S not produced" o)
      p.outputs
  in
  let seed_decls =
    List.map (fun (o, dim) -> Node_input { name = grad_name o; dim }) output_dims
  in
  let bprog =
    {
      name = p.name ^ "_backward";
      decls = p.decls @ seed_decls;
      body = backward_loops;
      outputs = [];
    }
  in
  let bprog = Loop_transform.fuse_adjacent bprog in
  (* Everything the backward body reads but does not produce becomes a
     declared input of the backward program: forward intermediates (the
     tensors the forward plan must keep materialized) and the loss-provided
     output gradients. *)
  let produced = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace produced v ()) (defs bprog);
  let converted = ref [] in
  let bprog =
    map_program_exprs
      (fun e ->
        match e with
        | Data (ent, n) when not (Hashtbl.mem produced (Inter_ir.scope_of_target ent, n)) ->
            let v = (Inter_ir.scope_of_target ent, n) in
            if not (List.mem v !converted) then converted := v :: !converted;
            Feature (ent, n)
        | other -> other)
      bprog
  in
  let reads_forward = List.filter (fun (_, n) -> not (is_grad_name n)) !converted in
  let extra_decls =
    List.filter_map
      (fun ((scope, n) as v) ->
        if Inter_ir.find_decl bprog n <> None then None
        else
          let dim =
            match List.assoc_opt v var_shapes with
            | Some s -> Check.shape_dim s
            | None -> unsupported "backward reads unknown variable %S" n
          in
          match scope with
          | `Node -> Some (Node_input { name = n; dim })
          | `Edge -> Some (Edge_input { name = n; dim }))
      !converted
  in
  let bprog = { bprog with decls = bprog.decls @ extra_decls } in
  { program = bprog; reads_forward }
