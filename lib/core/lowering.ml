open Inter_ir

type context = {
  spaces : (Inter_ir.var * Materialization.space) list;
  dims : (Inter_ir.var * int) list;
}

let empty_context = { spaces = []; dims = [] }

(* --- GEMM-template pattern matching (scan 1) --- *)

let endpoint_operand = function
  | Feature (Src, f) -> Some (`Src, Gemm_spec.Op_feature f)
  | Feature (Dst, f) -> Some (`Dst, Gemm_spec.Op_feature f)
  | Data (Src, v) -> Some (`Src, Gemm_spec.Op_data v)
  | Data (Dst, v) -> Some (`Dst, Gemm_spec.Op_data v)
  | _ -> None

let node_operand = function
  | Feature (Cur_node, f) -> Some (Gemm_spec.Op_feature f)
  | Data (Cur_node, v) -> Some (Gemm_spec.Op_data v)
  | _ -> None

(* a typed-linear expression over an endpoint: returns (side, operand,
   weight, transpose) *)
let edge_linear_expr = function
  | Linear (x, Weight (w, By_etype)) ->
      Option.map (fun (side, op) -> (side, op, w, false)) (endpoint_operand x)
  | Linear_t (x, Weight (w, By_etype)) ->
      Option.map (fun (side, op) -> (side, op, w, true)) (endpoint_operand x)
  | _ -> None

let scalar_dim dims_of e =
  match e with Data (Cur_edge, s) when dims_of (`Edge, s) = Some 1 -> Some s | _ -> None

let weight_mat_slice program name =
  match Inter_ir.find_decl program name with
  | Some (Weight_mat { slice; _ }) -> Some slice
  | _ -> None

let match_edge_gemm ~program ~dims_of ~space_of stmt =
  match stmt with
  | Assign (Cur_edge, y, rhs) -> (
      let make (side, input, weight, transpose) per_row_scalar =
        Some
          (Gemm_spec.Edge_linear
             {
               side;
               input;
               weight;
               output = y;
               out_space = space_of (`Edge, y);
               transpose;
               per_row_scalar;
             })
      in
      match edge_linear_expr rhs with
      | Some lin -> make lin None
      | None -> (
          match rhs with
          | Binop (Mul, lhs, rhs') -> (
              match (edge_linear_expr lhs, scalar_dim dims_of rhs') with
              | Some lin, Some s -> make lin (Some s)
              | _ -> (
                  match (scalar_dim dims_of lhs, edge_linear_expr rhs') with
                  | Some s, Some lin -> make lin (Some s)
                  | _ -> None))
          | _ -> None))
  | Accumulate (((Src | Dst) as ent), dx, rhs) -> (
      let side = if ent = Src then `Src else `Dst in
      match rhs with
      | Linear (Data (Cur_edge, dy), Weight (w, By_etype)) ->
          Some
            (Gemm_spec.Edge_linear_dinput
               {
                 side;
                 weight = w;
                 grad_output = dy;
                 grad_out_space = space_of (`Edge, dy);
                 grad_input = dx;
                 transpose = false;
               })
      | Linear_t (Data (Cur_edge, dy), Weight (w, By_etype)) ->
          Some
            (Gemm_spec.Edge_linear_dinput
               {
                 side;
                 weight = w;
                 grad_output = dy;
                 grad_out_space = space_of (`Edge, dy);
                 grad_input = dx;
                 transpose = true;
               })
      | _ -> None)
  | Grad_weight { name; x; dy = Data (Cur_edge, dyv) } -> (
      (* only matrices sliced by edge type lower to the transposed
         segment-MM; vector weights stay in the traversal path *)
      match (weight_mat_slice program name, endpoint_operand x) with
      | Some By_etype, Some (side, input) ->
          Some
            (Gemm_spec.Edge_linear_dweight
               {
                 side;
                 input;
                 grad_output = dyv;
                 grad_out_space = space_of (`Edge, dyv);
                 grad_weight = name;
               })
      | _ -> None)
  | _ -> None

let match_node_gemm ~program stmt =
  match stmt with
  | Assign (Cur_node, y, Linear (x, Weight (w, ((By_ntype | Shared) as slice)))) ->
      Option.map
        (fun input ->
          Gemm_spec.Node_linear
            { input; weight = w; slice; output = y; transpose = false; accumulate = false })
        (node_operand x)
  | Assign (Cur_node, y, Linear_t (x, Weight (w, ((By_ntype | Shared) as slice)))) ->
      Option.map
        (fun input ->
          Gemm_spec.Node_linear
            { input; weight = w; slice; output = y; transpose = true; accumulate = false })
        (node_operand x)
  | Accumulate (Cur_node, y, Linear (x, Weight (w, ((By_ntype | Shared) as slice)))) ->
      Option.map
        (fun input ->
          Gemm_spec.Node_linear
            { input; weight = w; slice; output = y; transpose = false; accumulate = true })
        (node_operand x)
  | Accumulate (Cur_node, y, Linear_t (x, Weight (w, ((By_ntype | Shared) as slice)))) ->
      Option.map
        (fun input ->
          Gemm_spec.Node_linear
            { input; weight = w; slice; output = y; transpose = true; accumulate = true })
        (node_operand x)
  | Grad_weight { name; x; dy = Data (Cur_node, dyv) } -> (
      match (weight_mat_slice program name, node_operand x) with
      | Some ((By_ntype | Shared) as slice), Some input ->
          Some
            (Gemm_spec.Node_linear_dweight
               { input; slice; grad_output = dyv; grad_weight = name })
      | _ -> None)
  | _ -> None

let has_opaque stmt = List.exists (exists_expr (function Opaque _ -> true | _ -> false)) (stmt_exprs stmt)

let opaque_name stmt =
  let found = ref "opaque" in
  List.iter
    (iter_expr (function Opaque (n, _) -> found := n | _ -> ()))
    (stmt_exprs stmt);
  !found

(* --- plan assembly --- *)

type counters = { mutable gemm : int; mutable traversal : int; mutable fallback : int }

let lower ?(obs = Hector_obs.disabled) ?(context = empty_context) ?(keep = [])
    ?(gemm_schedule = Gemm_spec.default_schedule)
    ?(traversal_schedule = Traversal_spec.default_schedule) ~layout ~weight_ops program =
  Gemm_spec.validate_schedule gemm_schedule;
  let infos = Check.check_exn program in
  let pin =
    (* pins from the caller's context only apply to names this program
       defines (gradient vars mirroring their primal's space) *)
    List.filter (fun (v, _) -> List.exists (fun i -> (i.Check.scope, i.Check.name) = v) infos)
      context.spaces
  in
  let own_spaces =
    Hector_obs.time obs ~kind:"pass" "materialization" (fun () ->
        Materialization.spaces ~inherit_from:pin layout program)
  in
  let all_spaces = own_spaces @ context.spaces in
  let space_of v =
    match List.assoc_opt v all_spaces with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "lowering: no space for %S" (snd v))
  in
  let dims_of v =
    match List.find_opt (fun i -> (i.Check.scope, i.Check.name) = v) infos with
    | Some i -> Some (Check.shape_dim i.Check.shape)
    | None -> List.assoc_opt v context.dims
  in
  let counters = { gemm = 0; traversal = 0; fallback = 0 } in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let emit_gemm task =
    let kid = counters.gemm in
    counters.gemm <- kid + 1;
    emit (Plan.Gemm { Gemm_spec.kid; task; schedule = gemm_schedule })
  in
  let emit_traversal strategy body =
    if body <> [] then begin
      let kid = counters.traversal in
      counters.traversal <- kid + 1;
      emit
        (Plan.Traversal
           { Traversal_spec.kid; strategy; body; locals = []; schedule = traversal_schedule; passes = [] })
    end
  in
  let emit_fallback strategy stmt =
    let kid = counters.fallback in
    counters.fallback <- kid + 1;
    emit
      (Plan.Fallback
         { Plan.kid; description = opaque_name stmt; strategy; body = [ stmt ]; passes = [] })
  in
  (* Lower one loop body: greedy GEMM matching per statement, contiguous
     leftovers fuse into traversal instances, opaque statements fall back. *)
  let lower_loop ~match_gemm ~strategy body =
    let flush run = emit_traversal strategy (List.rev run) in
    let run =
      List.fold_left
        (fun run stmt ->
          if has_opaque stmt then begin
            flush run;
            emit_fallback strategy stmt;
            []
          end
          else
            match match_gemm stmt with
            | Some task ->
                flush run;
                emit_gemm task;
                []
            | None -> stmt :: run)
        [] body
    in
    flush run
  in
  List.iter
    (fun top ->
      match top with
      | For_each (Edges, body) ->
          lower_loop ~match_gemm:(match_edge_gemm ~program ~dims_of ~space_of)
            ~strategy:Traversal_spec.Edge_parallel body
      | For_each (Nodes, body) ->
          (* split plain node statements from neighbor nests (the nodeify
             schedule keeps nests; canonicalized programs have none) *)
          let flush_plain run =
            lower_loop ~match_gemm:(match_node_gemm ~program)
              ~strategy:Traversal_spec.Node_map (List.rev run)
          in
          let run =
            List.fold_left
              (fun run stmt ->
                match stmt with
                | For_each (Incoming, inner) ->
                    flush_plain run;
                    let inner' =
                      List.map (Loop_transform.subst_entity_stmt ~from:Cur_node ~to_:Dst) inner
                    in
                    emit_traversal Traversal_spec.Node_gather inner';
                    []
                | For_each (Outgoing, inner) ->
                    flush_plain run;
                    let inner' =
                      List.map (Loop_transform.subst_entity_stmt ~from:Cur_node ~to_:Src) inner
                    in
                    emit_traversal Traversal_spec.Node_gather inner';
                    []
                | s -> s :: run)
              [] body
          in
          flush_plain run
      | Assign _ | Accumulate _ | Grad_weight _ | For_each ((Incoming | Outgoing), _) ->
          invalid_arg "lowering: program is not canonicalized (top level must be edge/node loops)")
    program.body;
  let steps = List.rev !steps in
  (* --- locals: edge vars private to a single traversal instance --- *)
  let keep_vars = keep @ List.map (fun o -> (`Node, o)) program.outputs in
  let program_accesses = accesses program.body in
  let locals_of body =
    let body_accesses = accesses body in
    List.filter_map
      (function
        | Assigned (Cur_edge, v)
          when (not (List.mem (`Edge, v) keep_vars))
               && uses program_accesses (`Edge, v) = uses body_accesses (`Edge, v) ->
            Some v
        | _ -> None)
      body_accesses
  in
  let steps =
    List.map
      (function
        | Plan.Traversal t when t.Traversal_spec.strategy = Traversal_spec.Edge_parallel ->
            Plan.Traversal { t with Traversal_spec.locals = locals_of t.Traversal_spec.body }
        | s -> s)
      steps
  in
  let all_locals =
    List.concat_map
      (function Plan.Traversal t -> t.Traversal_spec.locals | _ -> [])
      steps
  in
  (* --- buffers --- *)
  let buffers =
    List.filter_map
      (fun (i : Check.var_info) ->
        let v = (i.Check.scope, i.Check.name) in
        if i.Check.scope = `Edge && List.mem i.Check.name all_locals then None
        else
          Some
            {
              Plan.name = i.Check.name;
              scope = i.Check.scope;
              space = space_of v;
              dim = Check.shape_dim i.Check.shape;
              zero_init = i.Check.accumulated;
              temp = not (List.mem v keep_vars);
            })
      infos
  in
  let steps = List.map (fun op -> Plan.Weight_op op) weight_ops @ steps in
  let memory =
    Hector_obs.time obs ~kind:"pass" "buffer_plan" (fun () -> Buffer_plan.analyze ~buffers ~steps)
  in
  { Plan.name = program.name; layout; program; buffers; steps; spaces = all_spaces; memory }
