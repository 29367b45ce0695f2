type operand = Op_feature of string | Op_data of string

let operand_name = function Op_feature n | Op_data n -> n

type side = [ `Src | `Dst ]

type task =
  | Node_linear of {
      input : operand;
      weight : string;
      slice : Inter_ir.wslice;
      output : string;
      transpose : bool;
      accumulate : bool;
    }
  | Edge_linear of {
      side : side;
      input : operand;
      weight : string;
      output : string;
      out_space : Materialization.space;
      transpose : bool;
      per_row_scalar : string option;
    }
  | Edge_linear_dinput of {
      side : side;
      weight : string;
      grad_output : string;
      grad_out_space : Materialization.space;
      grad_input : string;
      transpose : bool;
    }
  | Edge_linear_dweight of {
      side : side;
      input : operand;
      grad_output : string;
      grad_out_space : Materialization.space;
      grad_weight : string;
    }
  | Node_linear_dweight of {
      input : operand;
      slice : Inter_ir.wslice;
      grad_output : string;
      grad_weight : string;
    }

let accesses task =
  let open Inter_ir in
  let read ent = function Op_feature n -> Read_input (ent, n) | Op_data n -> Read_data (ent, n) in
  let endpoint = function `Src -> Src | `Dst -> Dst in
  match task with
  | Node_linear { input; output; accumulate; _ } ->
      [ read Cur_node input; (if accumulate then Accumulated (Cur_node, output) else Assigned (Cur_node, output)) ]
  | Edge_linear { side; input; output; per_row_scalar; _ } ->
      (read (endpoint side) input :: List.map (fun s -> Read_data (Cur_edge, s)) (Option.to_list per_row_scalar))
      @ [ Assigned (Cur_edge, output) ]
  | Edge_linear_dinput { side; grad_output; grad_input; _ } ->
      [ Read_data (Cur_edge, grad_output); Accumulated (endpoint side, grad_input) ]
  | Edge_linear_dweight { side; input; grad_output; grad_weight; _ } ->
      [ read (endpoint side) input; Read_data (Cur_edge, grad_output); Weight_grad grad_weight ]
  | Node_linear_dweight { input; grad_output; grad_weight; _ } ->
      [ read Cur_node input; Read_data (Cur_node, grad_output); Weight_grad grad_weight ]

type schedule = { tile_width : int; coarsen : int; launch_bounds : bool }

let default_schedule = { tile_width = 16; coarsen = 1; launch_bounds = false }

let validate_schedule s =
  if not (List.mem s.tile_width [ 16; 32 ]) then
    invalid_arg "Gemm_spec: tile width must be 16 or 32";
  if not (List.mem s.coarsen [ 1; 2; 4 ]) then invalid_arg "Gemm_spec: coarsen must be 1, 2 or 4"

type t = { kid : int; task : task; schedule : schedule }

let name t = Printf.sprintf "gemm_%d" t.kid

let uses_gather t =
  match t.task with
  | Node_linear _ -> false
  | Edge_linear _ | Edge_linear_dinput _ | Edge_linear_dweight _ -> true
  | Node_linear_dweight _ -> false

let side_str = function `Src -> "src" | `Dst -> "dst"

let pp fmt t =
  (match t.task with
  | Node_linear { input; weight; output; transpose; accumulate; _ } ->
      Format.fprintf fmt "gemm_%d: %s[v] %s= %s[v] @@ %s[τ(v)]%s" t.kid output
        (if accumulate then "+" else "")
        (operand_name input) weight
        (if transpose then "ᵀ" else "")
  | Edge_linear { side; input; weight; output; out_space; per_row_scalar; transpose } ->
      Format.fprintf fmt "gemm_%d: %s[%s] = %s[e.%s] @@ %s[etype]%s%s" t.kid output
        (Materialization.space_name out_space) (operand_name input) (side_str side) weight
        (if transpose then "ᵀ" else "")
        (match per_row_scalar with None -> "" | Some s -> Printf.sprintf " * e[%s]" s)
  | Edge_linear_dinput { side; weight; grad_output; grad_input; transpose; _ } ->
      Format.fprintf fmt "gemm_%d: %s[e.%s] += %s[e] @@ %s%s" t.kid grad_input (side_str side)
        grad_output weight
        (if transpose then "ᵀ" else "")
  | Edge_linear_dweight { side; input; grad_output; grad_weight; _ } ->
      Format.fprintf fmt "gemm_%d: d%s[r] += Σ %s[e.%s]ᵀ @@ %s[e]" t.kid grad_weight
        (operand_name input) (side_str side) grad_output
  | Node_linear_dweight { input; grad_output; grad_weight; _ } ->
      Format.fprintf fmt "gemm_%d: d%s[t] += Σ %s[v]ᵀ @@ %s[v]" t.kid grad_weight
        (operand_name input) grad_output);
  Format.fprintf fmt "  (tile %d, coarsen %d%s)" t.schedule.tile_width t.schedule.coarsen
    (if t.schedule.launch_bounds then ", launch_bounds" else "")
