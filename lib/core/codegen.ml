let buf_add = Buffer.add_string

(* Row-index expression for a tensor in a given space, from the edge id
   variable [e] — the access schemes of §3.1.3/§3.3.1. *)
let row_expr space e =
  match space with
  | Materialization.Rows_nodes -> Printf.sprintf "/* per-node */ %s" e
  | Materialization.Rows_edges -> e
  | Materialization.Rows_compact_src -> Printf.sprintf "compact_src_row[%s]" e
  | Materialization.Rows_compact_dst -> Printf.sprintf "compact_dst_row[%s]" e

let adjacency_closures (layout : Layout.t) =
  match layout.Layout.adjacency with
  | Layout.Coo ->
      [
        "// COO adjacency: id retrieval closures are plain subscripts";
        "const int src = coo_src[idxEdge];   // GetSrcId";
        "const int dst = coo_dst[idxEdge];   // GetDstId";
        "const int etype = coo_etype[idxEdge]; // GetEType";
      ]
  | Layout.Csr ->
      [
        "// CSR adjacency: GetDstId is an ownership binary search";
        "const int dst = binary_search_owner(row_ptr, idxEdge); // GetDstId";
        "const int src = csr_col[idxEdge];   // GetSrcId";
        "const int etype = csr_etype[idxEdge]; // GetEType";
      ]

let rec expr_code ?(locals = []) ?(spaces = []) ?(hoist = []) e =
  let expr_code e = expr_code ~locals ~spaces ~hoist e in
  let open Inter_ir in
  match e with
  | _ when List.mem_assoc e hoist -> List.assoc e hoist
  | Const c -> Printf.sprintf "%gf" c
  | Feature (ent, n) | Data (ent, n) -> (
      match ent with
      | Cur_edge when List.mem n locals -> Printf.sprintf "reg_%s[d]" n
      | Cur_edge ->
          let row =
            match List.assoc_opt (`Edge, n) spaces with
            | Some space -> row_expr space "idxEdge"
            | None -> "idxEdge"
          in
          Printf.sprintf "%s[%s * %s_dim + d]" n row n
      | Cur_node -> Printf.sprintf "%s[idxNode * %s_dim + d]" n n
      | Src -> Printf.sprintf "%s[src * %s_dim + d]" n n
      | Dst -> Printf.sprintf "%s[dst * %s_dim + d]" n n)
  | Weight (n, _) -> Printf.sprintf "%s[etype * %s_stride + d]" n n
  | Linear (x, w) -> Printf.sprintf "dot_row(%s, %s)" (expr_code x) (expr_code w)
  | Linear_t (x, w) -> Printf.sprintf "dot_row_T(%s, %s)" (expr_code x) (expr_code w)
  | Inner (a, b) -> Printf.sprintf "inner(%s, %s)" (expr_code a) (expr_code b)
  | Concat (a, b) -> Printf.sprintf "concat(%s, %s)" (expr_code a) (expr_code b)
  | Slice (a, lo, len) -> Printf.sprintf "slice<%d,%d>(%s)" lo len (expr_code a)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_code a)
        (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/")
        (expr_code b)
  | Unop (op, a) ->
      Printf.sprintf "%s(%s)"
        (match op with
        | Exp -> "__expf"
        | Neg -> "-"
        | Reciprocal -> "__frcp_rn"
        | Leaky_relu -> "leaky_relu"
        | Relu -> "relu"
        | Rsqrt -> "rsqrtf"
        | Leaky_relu_grad -> "leaky_relu_grad"
        | Relu_grad -> "relu_grad")
        (expr_code a)
  | Opaque (n, args) ->
      Printf.sprintf "%s(%s)" n (String.concat ", " (List.map expr_code args))

let gemm_kernel (layout : Layout.t) (g : Gemm_spec.t) =
  let b = Buffer.create 1024 in
  let s = g.Gemm_spec.schedule in
  let tile = s.Gemm_spec.tile_width in
  let threads = tile * tile / s.Gemm_spec.coarsen in
  buf_add b (Printf.sprintf "// %s\n" (Format.asprintf "%a" Gemm_spec.pp g));
  if s.Gemm_spec.launch_bounds then
    buf_add b (Printf.sprintf "__launch_bounds__(%d, 4)\n" threads);
  buf_add b (Printf.sprintf "__global__ void %s(float* A, float* W, float* C, ...) {\n"
               (Gemm_spec.name g));
  buf_add b (Printf.sprintf "  // GetRange<%d>: output tiles, tile width %d, coarsen %d\n"
               g.Gemm_spec.kid tile s.Gemm_spec.coarsen);
  buf_add b (Printf.sprintf "  __shared__ float shmA[%d][%d], shmB[%d][%d];\n" tile tile tile tile);
  buf_add b "  int idxTileRow = blockIdx.x, idxTileCol = blockIdx.y;\n";
  (match g.Gemm_spec.task with
  | Gemm_spec.Node_linear { slice; _ } ->
      buf_add b "  // segment ranges per node type (segment MM)\n";
      if slice = Inter_ir.By_ntype then
        buf_add b "  int seg = segment_of_tile(idxTileRow); // ntype segment\n"
  | Gemm_spec.Edge_linear { side; out_space; per_row_scalar; _ } ->
      buf_add b
        (Printf.sprintf
           "  // LoadAToShmemIfInRange<%d>: gather input rows by %s id\n  //   A_row = %s_of(%s)\n"
           g.Gemm_spec.kid
           (match side with `Src -> "source" | `Dst -> "destination")
           (match side with `Src -> "src" | `Dst -> "dst")
           "row_index");
      buf_add b
        (Printf.sprintf "  // StoreCIfInRange<%d>: %s\n" g.Gemm_spec.kid
           (match out_space with
           | Materialization.Rows_edges -> "store one row per edge"
           | Materialization.Rows_compact_src | Materialization.Rows_compact_dst ->
               "scatter via compact row mapping (one row per (etype, node) pair)"
           | Materialization.Rows_nodes -> "store one row per node"));
      Option.iter
        (fun scalar ->
          buf_add b (Printf.sprintf "  //   fused per-row scalar: C_row *= %s[edge]\n" scalar))
        per_row_scalar
  | Gemm_spec.Edge_linear_dinput _ ->
      buf_add b "  // StoreC: atomicAdd into gathered node-gradient rows\n"
  | Gemm_spec.Edge_linear_dweight _ | Gemm_spec.Node_linear_dweight _ ->
      buf_add b "  // A is loaded transposed on the fly; C += per-segment reduction\n");
  let transpose =
    match g.Gemm_spec.task with
    | Gemm_spec.Node_linear { transpose; _ }
    | Gemm_spec.Edge_linear { transpose; _ }
    | Gemm_spec.Edge_linear_dinput { transpose; _ } ->
        transpose
    | _ -> false
  in
  if transpose then buf_add b "  // LoadBToShmemIfInRange: W accessed transposed on the fly\n";
  buf_add b "  for (int kTile = 0; kTile < kTiles; ++kTile) {\n";
  buf_add b (Printf.sprintf "    LoadAToShmemIfInRange_%d(shmA, kTile);\n" g.Gemm_spec.kid);
  buf_add b (Printf.sprintf "    LoadBToShmemIfInRange_%d(shmB, kTile);\n" g.Gemm_spec.kid);
  buf_add b "    __syncthreads();\n";
  buf_add b (Printf.sprintf "    mac_tiles(shmA, shmB, acc, %d);\n" s.Gemm_spec.coarsen);
  buf_add b "    __syncthreads();\n  }\n";
  buf_add b (Printf.sprintf "  StoreCIfInRange_%d(C, acc);\n}\n" g.Gemm_spec.kid);
  ignore layout;
  Buffer.contents b

let traversal_kernel ?(spaces = []) (layout : Layout.t) (t : Traversal_spec.t) =
  let module Ts = Traversal_spec in
  let b = Buffer.create 1024 and locals = t.Ts.locals in
  buf_add b (Printf.sprintf "// traversal instance %d\n__global__ void %s(...) {\n" t.Ts.kid (Ts.name t));
  let line pad l = buf_add b (pad ^ l ^ "\n") in
  let sweep_open pad =
    match t.Ts.strategy with
    | Ts.Edge_parallel ->
        line pad "int idxEdge = blockIdx.x * blockDim.x + threadIdx.x; // one thread per edge";
        List.iter (line pad) (adjacency_closures layout)
    | Ts.Node_gather ->
        line pad "int idxNode = blockIdx.x;            // one block per destination node";
        line pad "for (int k = row_ptr[idxNode]; k < row_ptr[idxNode+1]; ++k) {";
        line pad "  int idxEdge = eid[k]; int src = col[k]; int dst = idxNode;"
    | Ts.Node_map -> line pad "int idxNode = blockIdx.x * blockDim.x + threadIdx.x; // one thread per node"
  in
  let sweep_close pad = if t.Ts.strategy = Ts.Node_gather then line pad "}" in
  let row ent n =
    match ent with
    | Inter_ir.Cur_edge ->
        row_expr (Option.value (List.assoc_opt (`Edge, n) spaces) ~default:Materialization.Rows_edges) "idxEdge"
    | Inter_ir.Cur_node -> "idxNode"
    | Inter_ir.Src -> "src"
    | Inter_ir.Dst -> "dst"
  in
  let emit_stmt ~pad ~hoist st =
    let code e = expr_code ~locals ~spaces ~hoist e in
    match st with
    | Inter_ir.Assign (ent, n, e) ->
        let target = if List.mem n locals then Printf.sprintf "reg_%s[d]" n else Printf.sprintf "%s[%s]" n (row ent n) in
        line pad (Printf.sprintf "%s = %s;" target (code e))
    | Inter_ir.Accumulate (((Src | Dst) as ent), n, e) when t.Ts.strategy = Ts.Edge_parallel ->
        if t.Ts.schedule.Ts.warp_accumulate then line pad "// thread- and warp-level pre-reduction before the atomic";
        line pad (Printf.sprintf "atomicAdd(&%s[%s], %s);" n (row ent n) (code e))
    | Inter_ir.Accumulate (ent, n, e) -> line pad (Printf.sprintf "%s[%s] += %s;" n (row ent n) (code e))
    | Inter_ir.Grad_weight { name; x; dy } ->
        line pad (Printf.sprintf "atomicAdd(&grad_%s[etype], outer(%s, %s));" name (code x) (code dy))
    | Inter_ir.For_each _ -> line pad "/* nested loop */"
  in
  (* a pair loop runs its items once per (etype, endpoint) pair, at the
     pair's first edge; a reduction lands in pair scratch, which the sweep
     reads through the compact row map *)
  let scratch = ref 0 in
  let emit_pair_loop (l : Ts.pair_loop) =
    let side = Ts.side_name l.Ts.side in
    line "  " (Printf.sprintf "// %s pair loop: once per (etype, %s) pair, at its first edge" side side);
    line "  "
      (Printf.sprintf "for (int idxPair = blockIdx.x * blockDim.x + threadIdx.x; idxPair < num_compact_%s_pairs; %s) {"
         side "idxPair += gridDim.x * blockDim.x");
    line "    " (Printf.sprintf "int idxEdge = compact_%s_rep[idxPair];" side);
    List.iter (line "    ") (adjacency_closures layout);
    let hoist =
      List.filter_map
        (function
          | Ts.Pair_stmt st -> emit_stmt ~pad:"    " ~hoist:[] st; None
          | Ts.Pair_reduction e ->
              let k = !scratch in
              incr scratch;
              line "    " (Printf.sprintf "pair_scratch_%d[idxPair] = %s;" k (expr_code ~locals ~spaces e));
              Some (e, Printf.sprintf "pair_scratch_%d[compact_%s_row[idxEdge]]" k side))
        l.Ts.items
    in
    line "  " "}";
    hoist
  in
  let declare_locals () =
    List.iter (fun n -> line "  " (Printf.sprintf "float reg_%s[DIM]; // local, never materialized" n)) locals
  in
  (match t.Ts.passes with
  | [ { Ts.pair_loops = []; sweep; _ } ] ->
      sweep_open "  ";
      declare_locals ();
      List.iter (emit_stmt ~pad:"  " ~hoist:[]) sweep;
      sweep_close "  "
  | passes ->
      declare_locals ();
      List.iteri
        (fun i (p : Ts.pass) ->
          line "  " (Printf.sprintf "// pass %d" i);
          let hoist = List.concat_map emit_pair_loop p.Ts.pair_loops in
          if p.Ts.sweep <> [] then begin
            if p.Ts.pair_loops <> [] then line "  " "grid.sync(); // pair rows complete";
            line "  " ("{ // sweep, " ^ if p.Ts.parallel_safe then "destination-chunked" else "sequential");
            sweep_open "    ";
            List.iter (emit_stmt ~pad:"    " ~hoist) p.Ts.sweep;
            sweep_close "    ";
            line "  " "}"
          end;
          if i < List.length passes - 1 then line "  " "grid.sync();")
        passes);
  buf_add b "}\n";
  Buffer.contents b

let host_function (p : Plan.t) =
  let b = Buffer.create 1024 in
  buf_add b "// required preprocessing (collected by the §3.6 pass):\n";
  List.iter (fun s -> buf_add b (Printf.sprintf "//   - %s\n" s)) (Plan.preprocessing p);
  buf_add b (Printf.sprintf "void hector_%s(at::Tensor inputs...) {\n" p.Plan.name);
  List.iter
    (fun (buf : Plan.buffer) ->
      buf_add b
        (Printf.sprintf "  auto %s = at::empty({%s, %d});%s\n" buf.Plan.name
           (match buf.Plan.space with
           | Materialization.Rows_nodes -> "num_nodes"
           | Materialization.Rows_edges -> "num_edges"
           | Materialization.Rows_compact_src -> "num_compact_src_pairs"
           | Materialization.Rows_compact_dst -> "num_compact_dst_pairs")
           buf.Plan.dim
           (if buf.Plan.zero_init then " // zero-initialized" else "")))
    p.Plan.buffers;
  let emit_step step =
    match step with
    | Plan.Weight_op (Linear_fusion.Mat_vec { mat; vec; out; _ }) ->
        buf_add b (Printf.sprintf "  auto %s = at::bmm(%s, %s); // linear-operator fusion\n" out mat vec)
    | Plan.Weight_op (Linear_fusion.Mat_mat { left; right; out; _ }) ->
        buf_add b (Printf.sprintf "  auto %s = at::bmm(%s, %s); // linear-operator fusion\n" out left right)
    | Plan.Gemm g ->
        buf_add b (Printf.sprintf "  %s<<<grid_%d, block_%d>>>(...);\n" (Gemm_spec.name g)
                     g.Gemm_spec.kid g.Gemm_spec.kid)
    | Plan.Traversal t ->
        buf_add b (Printf.sprintf "  %s<<<grid, block>>>(...);\n" (Traversal_spec.name t))
    | Plan.Fallback f ->
        buf_add b (Printf.sprintf "  torch_fallback_%d(...); // %s via PyTorch ops\n" f.Plan.kid
                     f.Plan.description)
    | Plan.Fused f ->
        buf_add b
          (Printf.sprintf "  %s<<<grid, block>>>(...); // inter-op fusion of: %s\n"
             (Plan.step_name step)
             (String.concat " + " (List.map Plan.step_name f.Plan.members)));
        List.iter (fun m -> buf_add b (Printf.sprintf "  //   %s inlined\n" (Plan.step_name m)))
          f.Plan.members
  in
  List.iter emit_step p.Plan.steps;
  buf_add b "}\n";
  Buffer.contents b

let emit_plan (p : Plan.t) =
  let b = Buffer.create 4096 in
  buf_add b (Printf.sprintf "// === Hector generated code for %s (layout %s) ===\n\n" p.Plan.name
               (Format.asprintf "%a" Layout.pp p.Plan.layout));
  List.iter
    (fun step ->
      match step with
      | Plan.Gemm g ->
          buf_add b (gemm_kernel p.Plan.layout g);
          buf_add b "\n"
      | Plan.Traversal t ->
          buf_add b (traversal_kernel ~spaces:p.Plan.spaces p.Plan.layout t);
          buf_add b "\n"
      | Plan.Weight_op _ | Plan.Fallback _ | Plan.Fused _ -> ())
    (Plan.flatten_steps p);
  buf_add b (host_function p);
  Buffer.contents b
