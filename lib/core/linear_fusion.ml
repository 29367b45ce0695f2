open Inter_ir

type weight_op =
  | Mat_vec of { mat : string; vec : string; half : [ `Left | `Right | `All ]; out : string }
  | Mat_mat of { left : string; left_slice : wslice; right : string; out : string }

type result = { program : program; weight_ops : weight_op list; rewrites : int }

(* Map from produced variable to its unique defining Assign expression;
   variables assigned more than once, or through +=, are excluded. *)
let unique_defs p =
  let writes = Hashtbl.create 16 in
  List.iter
    (function
      | (Assigned (ent, n) | Accumulated (ent, n)) as w -> Hashtbl.add writes (scope_of_target ent, n) w
      | Read_input _ | Read_data _ | Weight_grad _ -> ())
    (accesses p.body);
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Assign (ent, name, e) -> (
          let v = (scope_of_target ent, name) in
          match Hashtbl.find_all writes v with [ Assigned _ ] -> Hashtbl.replace tbl v e | _ -> ())
      | Accumulate _ | Grad_weight _ | For_each _ -> ())
    (leaves p.body);
  tbl

(* --- dead intermediate elimination --- *)

(* Drop variables no statement reads that are not outputs.  Only
   Assign-defined ones go: an accumulated variable with no reads may
   still be an output of interest, kept conservatively. *)
let eliminate_dead p =
  let rec pass p =
    let acc = accesses p.body in
    let dead =
      List.filter
        (fun ((_, name) as v) ->
          uses acc v = 0
          && (not (List.mem name p.outputs))
          && not (List.exists (function Accumulated (ent, n) -> (scope_of_target ent, n) = v | _ -> false) acc))
        (defs p)
    in
    if dead = [] then p
    else begin
      let rec clean stmt =
        match stmt with
        | Assign (ent, name, _) when List.mem (scope_of_target ent, name) dead -> None
        | For_each (kind, body) ->
            let body = List.filter_map clean body in
            if body = [] then None else Some (For_each (kind, body))
        | s -> Some s
      in
      pass { p with body = List.filter_map clean p.body }
    end
  in
  pass p

(* --- pattern 1: attention-vector push-down --- *)

type att_match = {
  att_vec : string;
  zi_name : string;
  zj_name : string;
  zi_input : expr;  (* e.g. Feature (Src, "h") *)
  zj_input : expr;
  weight : string;
}

(* resolve one level of indirection: the concat may be an explicit
   intermediate variable (Listing-1 style) *)
let resolve_concat defs_tbl = function
  | Concat (Data (Cur_edge, zi), Data (Cur_edge, zj)) -> Some (zi, zj)
  | Data (Cur_edge, z) -> (
      match Hashtbl.find_opt defs_tbl (`Edge, z) with
      | Some (Concat (Data (Cur_edge, zi), Data (Cur_edge, zj))) -> Some (zi, zj)
      | _ -> None)
  | _ -> None

let match_attention defs_tbl expr =
  match expr with
  | Inner (Weight (att_vec, By_etype), concat_arg) -> (
      match resolve_concat defs_tbl concat_arg with
      | None -> None
      | Some (zi, zj) -> (
      match (Hashtbl.find_opt defs_tbl (`Edge, zi), Hashtbl.find_opt defs_tbl (`Edge, zj)) with
      | ( Some (Linear ((Feature (Src, _) as xi), Weight (w1, By_etype))),
          Some (Linear ((Feature (Dst, _) as xj), Weight (w2, By_etype))) )
        when String.equal w1 w2 ->
          Some { att_vec; zi_name = zi; zj_name = zj; zi_input = xi; zj_input = xj; weight = w1 }
      | _ -> None))
  | _ -> None

let apply_attention_rewrite p =
  let defs_tbl = unique_defs p in
  let found = ref None in
  let scan e = if !found = None then found := match_attention defs_tbl e in
  List.iter (fun s -> List.iter (fun e -> iter_expr scan e) (stmt_exprs s)) p.body;
  match !found with
  | None -> None
  | Some m ->
      let ul = Printf.sprintf "__%s_ul" m.att_vec and ur = Printf.sprintf "__%s_ur" m.att_vec in
      let rows =
        match find_decl p m.weight with
        | Some (Weight_mat { rows; _ }) -> rows
        | _ -> invalid_arg "linear fusion: attention weight is not a matrix"
      in
      let p =
        map_program_exprs
          (fun e ->
            match match_attention defs_tbl e with
            | Some m' when String.equal m'.att_vec m.att_vec ->
                Binop
                  ( Add,
                    Inner (m'.zi_input, Weight (ul, By_etype)),
                    Inner (m'.zj_input, Weight (ur, By_etype)) )
            | _ -> e)
          p
      in
      let decls =
        p.decls
        @ [
            Weight_vec { name = ul; slice = By_etype; dim = rows };
            Weight_vec { name = ur; slice = By_etype; dim = rows };
          ]
      in
      Some
        ( { p with decls },
          [
            Mat_vec { mat = m.weight; vec = m.att_vec; half = `Left; out = ul };
            Mat_vec { mat = m.weight; vec = m.att_vec; half = `Right; out = ur };
          ] )

(* --- pattern 2: chained typed linear collapse --- *)

type chain_match = {
  edge_var : string;  (* the edge data being defined *)
  side : entity;  (* Src or Dst *)
  node_var : string;  (* the intermediate node data, e.g. "k" *)
  node_input : string;  (* the raw feature feeding the node linear *)
  node_weight : string;  (* K (by ntype) *)
  edge_weight : string;  (* Wa (by etype) *)
}

let match_chain defs_tbl stmt =
  match stmt with
  | Assign (Cur_edge, edge_var, Linear (Data (((Src | Dst) as side), node_var), Weight (wa, By_etype)))
    -> (
      match Hashtbl.find_opt defs_tbl (`Node, node_var) with
      | Some (Linear (Feature (Cur_node, f), Weight (k, By_ntype))) ->
          Some { edge_var; side; node_var; node_input = f; node_weight = k; edge_weight = wa }
      | _ -> None)
  | _ -> None

let apply_chain_rewrite p =
  let defs_tbl = unique_defs p in
  match List.find_map (match_chain defs_tbl) (leaves p.body) with
  | None -> None
  | Some m ->
      let fused = Printf.sprintf "__%s_%s" m.node_weight m.edge_weight in
      let rows =
        match find_decl p m.node_weight with
        | Some (Weight_mat { rows; _ }) -> rows
        | _ -> invalid_arg "linear fusion: node weight is not a matrix"
      in
      let cols =
        match find_decl p m.edge_weight with
        | Some (Weight_mat { cols; _ }) -> cols
        | _ -> invalid_arg "linear fusion: edge weight is not a matrix"
      in
      let left_slice = if m.side = Src then By_src_ntype else By_dst_ntype in
      let rewrite = function
        | Assign (Cur_edge, ev, Linear (Data (side, nv), Weight (wa, By_etype)))
          when String.equal ev m.edge_var && String.equal nv m.node_var && side = m.side
               && String.equal wa m.edge_weight ->
            Assign
              (Cur_edge, ev, Linear (Feature (m.side, m.node_input), Weight (fused, By_etype)))
        | s -> s
      in
      let rec rewrite_stmt = function
        | For_each (kind, body) -> For_each (kind, List.map rewrite_stmt body)
        | s -> rewrite s
      in
      let decls = p.decls @ [ Weight_mat { name = fused; slice = By_etype; rows; cols } ] in
      Some
        ( { p with decls; body = List.map rewrite_stmt p.body },
          [ Mat_mat { left = m.node_weight; left_slice; right = m.edge_weight; out = fused } ] )

let run p =
  let rec go p ops rewrites =
    match apply_attention_rewrite p with
    | Some (p', new_ops) -> go p' (ops @ new_ops) (rewrites + 1)
    | None -> (
        match apply_chain_rewrite p with
        | Some (p', new_ops) -> go p' (ops @ new_ops) (rewrites + 1)
        | None -> (p, ops, rewrites))
  in
  let p', ops, rewrites = go p [] 0 in
  let p' = if rewrites > 0 then eliminate_dead p' else p' in
  { program = p'; weight_ops = ops; rewrites }
