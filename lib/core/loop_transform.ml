open Inter_ir

(* Substitute entity references when moving a statement between loop
   forms: inside an incoming-edges nest, [n] denotes what [e.dst] denotes
   in the flat edge loop (and [e.src] for outgoing). *)
let subst_entity_expr ~from ~to_ expr =
  map_expr
    (fun e ->
      match e with
      | Feature (ent, name) when ent = from -> Feature (to_, name)
      | Data (ent, name) when ent = from -> Data (to_, name)
      | other -> other)
    expr

let rec subst_entity_stmt ~from ~to_ = function
  | Assign (ent, name, e) ->
      Assign ((if ent = from then to_ else ent), name, subst_entity_expr ~from ~to_ e)
  | Accumulate (ent, name, e) ->
      Accumulate ((if ent = from then to_ else ent), name, subst_entity_expr ~from ~to_ e)
  | Grad_weight { name; x; dy } ->
      Grad_weight
        { name; x = subst_entity_expr ~from ~to_ x; dy = subst_entity_expr ~from ~to_ dy }
  | For_each (kind, body) -> For_each (kind, List.map (subst_entity_stmt ~from ~to_) body)

let edgeify p =
  let rewrite_node_loop body =
    (* split the node-loop body into runs of plain statements and neighbor
       nests, emitting node loops and edge loops in order *)
    let flush acc run =
      match run with [] -> acc | stmts -> For_each (Nodes, List.rev stmts) :: acc
    in
    let acc, run =
      List.fold_left
        (fun (acc, run) stmt ->
          match stmt with
          | For_each (Incoming, inner) ->
              let inner' = List.map (subst_entity_stmt ~from:Cur_node ~to_:Dst) inner in
              (For_each (Edges, inner') :: flush acc run, [])
          | For_each (Outgoing, inner) ->
              let inner' = List.map (subst_entity_stmt ~from:Cur_node ~to_:Src) inner in
              (For_each (Edges, inner') :: flush acc run, [])
          | s -> (acc, s :: run))
        ([], []) body
    in
    List.rev (flush acc run)
  in
  let body =
    List.concat_map
      (fun stmt ->
        match stmt with
        | For_each (Nodes, body) -> rewrite_node_loop body
        | other -> [ other ])
      p.body
  in
  { p with body }

let nodeify p =
  (* An edge loop is legal as a destination-node/incoming-edge nest when
     every statement runs once per edge and only scatters into destination
     data: per-edge assigns and destination accumulations qualify; source
     scatters and weight gradients would still need atomics and stay in
     edge form. *)
  let nest_legal body =
    body <> []
    && List.for_all
         (function
           | Assign (Cur_edge, _, _) | Accumulate (Cur_edge, _, _) | Accumulate (Dst, _, _) ->
               true
           | Assign _ | Accumulate _ | Grad_weight _ | For_each _ -> false)
         body
  in
  let body =
    List.map
      (fun stmt ->
        match stmt with
        | For_each (Edges, body) when nest_legal body ->
            let inner = List.map (subst_entity_stmt ~from:Dst ~to_:Cur_node) body in
            For_each (Nodes, [ For_each (Incoming, inner) ])
        | other -> other)
      p.body
  in
  { p with body }

let drop_dead_zero_init p =
  let accd =
    List.filter_map
      (function Accumulated (ent, name) -> Some (scope_of_target ent, name) | _ -> None)
      (accesses p.body)
  in
  let is_dead = function
    | Assign (ent, name, Const 0.0) -> List.mem (scope_of_target ent, name) accd
    | _ -> false
  in
  let rec clean stmt =
    match stmt with
    | For_each (kind, body) ->
        let body = List.filter_map clean body in
        if body = [] then None else Some (For_each (kind, body))
    | s -> if is_dead s then None else Some s
  in
  { p with body = List.filter_map clean p.body }

(* Two adjacent loops fuse unless the second reads a variable the first
   produces through scatter accumulation (Accumulate through Src/Dst in
   an edge loop, or any node accumulation visible to later edge
   iterations). *)
let can_fuse first second =
  let scattered =
    List.filter_map
      (function Accumulated (((Src | Dst | Cur_node) as ent), name) -> Some (scope_of_target ent, name) | _ -> None)
      (accesses first)
  in
  not
    (List.exists
       (function Read_data (ent, name) -> List.mem (scope_of_target ent, name) scattered | _ -> false)
       (accesses second))

let fuse_adjacent p =
  let rec go = function
    | For_each (k1, b1) :: For_each (k2, b2) :: rest
      when k1 = k2 && (k1 = Edges || k1 = Nodes) && can_fuse b1 b2 ->
        go (For_each (k1, b1 @ b2) :: rest)
    | s :: rest -> s :: go rest
    | [] -> []
  in
  { p with body = go p.body }

let canonicalize p = fuse_adjacent (drop_dead_zero_init (edgeify p))
