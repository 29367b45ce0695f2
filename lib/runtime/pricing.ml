(* Launch pricing: every kernel descriptor the runtime charges, for
   [Exec], [Train] and [Plan_cost] alike (see the interface). *)

module Kernel = Hector_gpu.Kernel
module G = Hector_graph.Hetgraph
module Cm = Hector_graph.Compact_map
module Ir = Hector_core.Inter_ir
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Lf = Hector_core.Linear_fusion
module Check = Hector_core.Check

(* --- traversals ------------------------------------------------ *)

(* Per-iteration traffic/flops of a statement body, used to build the
   kernel descriptor. *)
type traffic = {
  mutable flops : float;
  mutable coalesced : float;
  mutable gathered : float;
  mutable atomic : float;
}

(* What [Exec] binds under [n] while it runs [plan], as (dim, space): the
   plan's own buffer, else a declared input — a feature, the loss seed, or
   in a backward plan a kept forward value, in the forward plan's row
   space ([Plan.spaces] carries it).  [None] for a register local. *)
let binding (plan : Plan.t) n =
  match Plan.find_buffer plan n with
  | Some b -> Some (b.Plan.dim, b.Plan.space)
  | None -> (
      match Ir.find_decl plan.Plan.program n with
      | Some (Ir.Node_input { dim; _ }) -> Some (dim, Mat.Rows_nodes)
      | Some (Ir.Edge_input { dim; _ }) ->
          Some (dim, Option.value (List.assoc_opt (`Edge, n) plan.Plan.spaces) ~default:Mat.Rows_edges)
      | _ -> None)

(* A read name's binding: [Exec] fails on an unbound read as well. *)
let bound (plan : Plan.t) n =
  match binding plan n with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Pricing: plan %s neither holds nor declares %S" plan.Plan.name n)

(* An expression's width by [Check.width]: a register local's from
   [locals_dims], any other name's from its binding. *)
let expr_dim (plan : Plan.t) locals_dims expr =
  Check.shape_dim
    (Check.width plan.Plan.program expr ~read:(fun _ n ->
         Check.Vec (match List.assoc_opt n locals_dims with Some d -> d | None -> fst (bound plan n))))

(* Compact rows destroy the coalescing that edge-parallel threads enjoy on
   vanilla per-edge tensors: neighbouring edges hit scattered compact rows
   through an extra indirection.  The factor models the lost transaction
   efficiency on top of the generic gather penalty (paper §4.4: on AM the
   "more complicated access scheme" makes traversals offset the GEMM
   savings). *)
let compact_access_penalty = 1.5

let add_expr_traffic plan locals traffic strategy expr =
  let dim = expr_dim plan locals in
  let rec walk e =
    (match e with
    | Ir.Const _ -> ()
    | Ir.Feature (ent, n) | Ir.Data (ent, n) -> (
        if not (List.mem_assoc n locals) then
          let d, space = bound plan n in
          let bytes = float_of_int (d * 4) in
          match (ent, space) with
          | Ir.Cur_edge, (Mat.Rows_compact_src | Mat.Rows_compact_dst) ->
              traffic.gathered <- traffic.gathered +. (bytes *. compact_access_penalty) +. 4.0
          | Ir.Cur_edge, _ ->
              if strategy = Ts.Node_gather then traffic.gathered <- traffic.gathered +. bytes
              else traffic.coalesced <- traffic.coalesced +. bytes
          | (Ir.Src | Ir.Dst), _ -> traffic.gathered <- traffic.gathered +. bytes
          | Ir.Cur_node, _ -> traffic.coalesced <- traffic.coalesced +. bytes)
    | Ir.Weight (_, Ir.Shared) -> () (* cached in shared memory / registers *)
    | Ir.Weight _ -> traffic.gathered <- traffic.gathered +. float_of_int (dim e * 4)
    | Ir.Linear (x, _) | Ir.Linear_t (x, _) ->
        traffic.flops <- traffic.flops +. float_of_int (2 * dim x * dim e)
    | Ir.Inner (a, _) -> traffic.flops <- traffic.flops +. float_of_int (2 * dim a)
    | Ir.Concat _ | Ir.Slice _ -> ()
    | Ir.Binop (_, _, _) | Ir.Unop (_, _) -> traffic.flops <- traffic.flops +. float_of_int (dim e)
    | Ir.Opaque _ -> traffic.flops <- traffic.flops +. float_of_int (dim e));
    match e with
    | Ir.Linear (x, _) | Ir.Linear_t (x, _) -> walk x (* weight handled above *)
    | Ir.Inner (a, b) | Ir.Concat (a, b) | Ir.Binop (_, a, b) -> walk a; walk b
    | Ir.Slice (a, _, _) | Ir.Unop (_, a) -> walk a
    | Ir.Opaque (_, args) -> List.iter walk args
    | Ir.Const _ | Ir.Feature _ | Ir.Data _ | Ir.Weight _ -> ()
  in
  walk expr

(* Each register local's width: its last definition's, each definition
   sized from the widths of the locals defined before it (a local not yet
   defined counts one column). *)
let locals_dims plan (spec : Ts.t) =
  List.fold_left
    (fun dims st ->
      match st with
      | Ir.Assign (Ir.Cur_edge, v, e) when List.mem_assoc v dims ->
          (v, expr_dim plan dims e) :: List.remove_assoc v dims
      | _ -> dims)
    (List.map (fun n -> (n, 1)) spec.Ts.locals)
    spec.Ts.body

(* Per-iteration traffic of ONE statement (adjacency reads are charged by
   the caller, once per edge). *)
let stmt_traffic plan (spec : Ts.t) ~locals_dims st =
  let traffic = { flops = 0.0; coalesced = 0.0; gathered = 0.0; atomic = 0.0 } in
  let strategy = spec.Ts.strategy in
  let warp = spec.Ts.schedule.Ts.warp_accumulate in
  let add_write ent n accumulate =
    let bound = binding plan n in
    let d =
      match bound with
      | Some (d, _) -> d
      | None -> ( match List.assoc_opt n locals_dims with Some d -> max d 1 | None -> 1)
    in
    let bytes = float_of_int (d * 4) in
    if List.mem n spec.Ts.locals then ()
    else
      match (ent, bound) with
      | Ir.Cur_edge, Some (_, (Mat.Rows_compact_src | Mat.Rows_compact_dst)) ->
          traffic.gathered <- traffic.gathered +. (bytes *. compact_access_penalty) +. 4.0
      | Ir.Cur_edge, _ -> traffic.coalesced <- traffic.coalesced +. bytes
      | (Ir.Src | Ir.Dst), _ ->
          if accumulate && strategy = Ts.Edge_parallel then
            traffic.atomic <- traffic.atomic +. (bytes /. if warp then 8.0 else 1.0)
          else traffic.gathered <- traffic.gathered +. bytes
      | Ir.Cur_node, _ -> traffic.coalesced <- traffic.coalesced +. bytes
  in
  (match st with
  | Ir.Assign (ent, n, e) ->
      add_expr_traffic plan locals_dims traffic strategy e;
      add_write ent n false
  | Ir.Accumulate (ent, n, e) ->
      add_expr_traffic plan locals_dims traffic strategy e;
      add_write ent n true
  | Ir.Grad_weight { x; dy; _ } ->
      add_expr_traffic plan locals_dims traffic strategy x;
      add_expr_traffic plan locals_dims traffic strategy dy;
      let d = expr_dim plan locals_dims x * expr_dim plan locals_dims dy in
      traffic.atomic <- traffic.atomic +. (float_of_int (d * 4) /. if warp then 8.0 else 1.0)
  | Ir.For_each _ -> ());
  traffic

(* The single launch charged for a whole traversal spec (passes share it):
   swept statements iterate over edges (or nodes for Node_map), the
   recorded pair-local statements only over their side's pair count. *)
let iterations (g : G.t) = function Ts.Edge_parallel | Ts.Node_gather -> g.G.num_edges | Ts.Node_map -> g.G.num_nodes

let traversal_kernel ~ctx ~(plan : Plan.t) (spec : Ts.t) =
  let g = Graph_ctx.graph ctx in
  let iters = iterations g spec.Ts.strategy in
  (* adjacency id-retrieval closures (§3.3.5): COO is three coalesced
     subscripts; CSR gets the destination from a binary ownership search in
     the row-pointer array *)
  let adjacency_coalesced, adjacency_gathered =
    match plan.Plan.layout.Hector_core.Layout.adjacency with
    | Hector_core.Layout.Coo -> (12.0, 0.0)
    | Hector_core.Layout.Csr ->
        let log_n = Float.max 1.0 (Float.log2 (float_of_int (max 2 g.G.num_nodes))) in
        (8.0, 4.0 *. log_n)
  in
  let iters_of st =
    match Ts.pair_side spec.Ts.passes st with
    | None -> iters
    | Some `Src -> (Graph_ctx.compact_src ctx).Cm.num_pairs
    | Some `Dst -> (Graph_ctx.compact_dst ctx).Cm.num_pairs
  in
  let total = { flops = 0.0; coalesced = 0.0; gathered = 0.0; atomic = 0.0 } in
  (* adjacency reads once per edge *)
  if spec.Ts.strategy <> Ts.Node_map then begin
    total.coalesced <- total.coalesced +. (adjacency_coalesced *. float_of_int iters);
    total.gathered <- total.gathered +. (adjacency_gathered *. float_of_int iters)
  end;
  let locals_dims = locals_dims plan spec in
  List.iter
    (fun st ->
      let one = stmt_traffic plan spec ~locals_dims st in
      let n = float_of_int (iters_of st) in
      total.flops <- total.flops +. (one.flops *. n);
      total.coalesced <- total.coalesced +. (one.coalesced *. n);
      total.gathered <- total.gathered +. (one.gathered *. n);
      total.atomic <- total.atomic +. (one.atomic *. n))
    spec.Ts.body;
  let blocks =
    match spec.Ts.strategy with
    | Ts.Node_gather -> max 1 g.G.num_nodes
    | _ -> max 1 ((iters + 255) / 256)
  in
  Kernel.make ~name:(Ts.name spec) ~category:Kernel.Traversal ~grid_blocks:blocks
    ~threads_per_block:256 ~flops:total.flops ~bytes_coalesced:total.coalesced
    ~bytes_gathered:total.gathered ~bytes_atomic:total.atomic ()

(* --- fallbacks, GEMMs, weight ops ------------------------------ *)

let numel shape = Array.fold_left ( * ) 1 shape

(* One kernel + full materialization per operator node of the fallback
   body (§3.1.1: each framework op is its own launch). *)
let fallback_kernels ~ctx (f : Plan.fallback) =
  let iters = iterations (Graph_ctx.graph ctx) f.Plan.strategy in
  let ops = ref 0 in
  List.iter (List.iter (Ir.iter_expr (fun _ -> incr ops))) (List.map Ir.stmt_exprs f.Plan.body);
  let ops = !ops in
  let avg_dim = 16.0 (* intermediate rows materialized between op kernels *) in
  List.init (max 1 ops) (fun i ->
      Kernel.make
        ~name:(Printf.sprintf "fallback_%d_op%d" f.Plan.kid i)
        ~category:Kernel.Fallback
        ~grid_blocks:(max 1 ((iters + 255) / 256))
        ~threads_per_block:256
        ~flops:(float_of_int iters *. avg_dim)
        ~bytes_coalesced:(float_of_int iters *. avg_dim *. 4.0 *. 2.0)
        ~bytes_gathered:(float_of_int iters *. 8.0)
        ())

(* Launch-descriptor for one fused gather→segmentMM→scatter kernel. *)
let gemm_cost ~name ~rows ~k ~n ~(schedule : Gs.schedule) ~gathered_in ~scatter_out ~atomic_out
    ~accumulate =
  let tile = float_of_int schedule.Gs.tile_width in
  let r = float_of_int rows and kf = float_of_int k and nf = float_of_int n in
  let flops = 2.0 *. r *. kf *. nf in
  let flops = if schedule.Gs.launch_bounds then flops /. 1.05 else flops in
  (* output tiles are register-blocked: each thread holds a coarsened
     column strip, so A is reloaded once per two column tiles *)
  let a_bytes = r *. kf *. 4.0 *. Float.max 1.0 (nf /. (2.0 *. tile)) in
  let b_bytes = kf *. nf *. 4.0 *. Float.max 1.0 (r /. (2.0 *. tile)) in
  let c_bytes = r *. nf *. 4.0 *. if accumulate then 2.0 else 1.0 in
  let index_bytes = if gathered_in || scatter_out then r *. 4.0 else 0.0 in
  let coalesced = b_bytes +. (if gathered_in then 0.0 else a_bytes) +. index_bytes in
  let coalesced = coalesced +. if scatter_out || atomic_out then 0.0 else c_bytes in
  let gathered = (if gathered_in then a_bytes else 0.0) +. if scatter_out && not atomic_out then c_bytes else 0.0 in
  let atomic = if atomic_out then c_bytes else 0.0 in
  let tiles_r = (rows + schedule.Gs.tile_width - 1) / schedule.Gs.tile_width in
  let tiles_n = max 1 ((n + schedule.Gs.tile_width - 1) / schedule.Gs.tile_width) in
  let threads = schedule.Gs.tile_width * schedule.Gs.tile_width / schedule.Gs.coarsen in
  Kernel.make ~name ~category:Kernel.Gemm
    ~grid_blocks:(max 1 (tiles_r * tiles_n))
    ~threads_per_block:(max 32 threads) ~flops ~bytes_coalesced:coalesced
    ~bytes_gathered:gathered ~bytes_atomic:atomic ()

(* The launch descriptor of a GEMM spec — the task decides the gather /
   scatter / atomic flags and where the [rows × k × n] shape comes from
   (weight-stack dims for forward and dinput tasks, operand dims for
   dweight tasks). *)
let gemm_kernel ~ctx ~(plan : Plan.t) (spec : Gs.t) =
  let nodes = (Graph_ctx.graph ctx).G.num_nodes and rows = Graph_ctx.rows_of_space ctx in
  let weight w transpose =
    let w = Graph_ctx.weight_shape ctx plan.Plan.program w in
    if transpose then (w.(2), w.(1)) else (w.(1), w.(2))
  in
  let dims x dy = (fst (bound plan (Gs.operand_name x)), fst (bound plan dy)) in
  (* rows, (k, n), gathered input, scattered output, atomic output, accumulate *)
  let r, (k, n), gathered_in, scatter_out, atomic_out, accumulate =
    match spec.Gs.task with
    | Gs.Node_linear { weight = w; transpose; accumulate; _ } ->
        (nodes, weight w transpose, false, false, false, accumulate)
    | Gs.Edge_linear { weight = w; out_space; transpose; _ } ->
        (rows out_space, weight w transpose, true, false, false, false)
    | Gs.Edge_linear_dinput { weight = w; grad_out_space; transpose; _ } ->
        (rows grad_out_space, weight w transpose, false, true, true, true)
    | Gs.Edge_linear_dweight { input; grad_output; grad_out_space; _ } ->
        (rows grad_out_space, dims input grad_output, true, false, false, true)
    | Gs.Node_linear_dweight { input; grad_output; _ } -> (nodes, dims input grad_output, false, false, false, true)
  in
  let kern =
    gemm_cost ~name:(Gs.name spec) ~rows:r ~k ~n ~schedule:spec.Gs.schedule ~gathered_in ~scatter_out ~atomic_out
      ~accumulate
  in
  (* a scatter pre-aggregates tile rows in shared memory before the
     atomic update, cutting atomic traffic *)
  if atomic_out then { kern with Kernel.bytes_atomic = kern.Kernel.bytes_atomic /. 4.0 } else kern

(* Weight-prologue launch descriptor.  [Mat_mat] flops are expressed from
   the factor shapes ([slices × (dim l 1) × (dim r 2)] output, inner dim
   [dim r 1]). *)
let weight_op_kernel ~shape op =
  let name =
    match op with Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> "weight_op_" ^ out
  in
  let flops =
    match op with
    | Lf.Mat_vec { mat; _ } -> 2.0 *. float_of_int (numel (shape mat))
    | Lf.Mat_mat { left; right; _ } ->
        let l = shape left and r = shape right in
        2.0 *. float_of_int (r.(0) * l.(1) * r.(2)) *. float_of_int r.(1)
  in
  Kernel.make ~name ~category:Kernel.Gemm ~grid_blocks:64 ~flops
    ~bytes_coalesced:(flops /. 2.0) ~graph_proportional:false ()

(* --- memsets, fused groups, whole plans ------------------------ *)

(* The zero-fill launch a [zero_init] buffer is charged on every run.
   [inlined] lists the zero-init buffers whose whole live range sits
   inside one fused step (Plan.inline_zeroed): their accumulator is
   initialized inside the fused kernel, so the zero fill still happens but
   no separate memset launch is charged. *)
let buffer_memset ~ctx ~inlined (b : Plan.buffer) =
  if b.Plan.zero_init && not (List.mem b.Plan.name inlined) then
    let rows = Graph_ctx.rows_of_space ctx b.Plan.space and dim = b.Plan.dim in
    Some
      (Kernel.make
         ~name:("memset_" ^ b.Plan.name)
         ~category:Kernel.Copy
         ~grid_blocks:(max 1 (rows * dim / 256 / 256))
         ~bytes_coalesced:(float_of_int (rows * dim * 4))
         ~provenance:(Kernel.provenance ~origin:"runtime.memset" b.Plan.name)
         ())
  else None

(* One kernel standing for a whole fused group: the members' work summed,
   launched once.  Members execute one after another, so numerics are
   exactly the unfused plan's — the merge only changes the launch
   accounting. *)
let merge_kernels name ks =
  let sum f = List.fold_left (fun a k -> a +. f k) 0.0 ks in
  let maxi f = List.fold_left (fun a k -> max a (f k)) 1 ks in
  let category =
    if List.exists (fun k -> k.Kernel.category = Kernel.Gemm) ks then Kernel.Gemm
    else Kernel.Traversal
  in
  Kernel.make ~name ~category
    ~grid_blocks:(maxi (fun k -> k.Kernel.grid_blocks))
    ~threads_per_block:(maxi (fun k -> k.Kernel.threads_per_block))
    ~flops:(sum (fun k -> k.Kernel.flops))
    ~bytes_coalesced:(sum (fun k -> k.Kernel.bytes_coalesced))
    ~bytes_gathered:(sum (fun k -> k.Kernel.bytes_gathered))
    ~bytes_atomic:(sum (fun k -> k.Kernel.bytes_atomic))
    ~graph_proportional:(List.for_all (fun k -> k.Kernel.graph_proportional) ks)
    ()

(* A step's launches, before [schedule] tags them with its provenance. *)
let rec step_kernels ~ctx ~(plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> [ weight_op_kernel ~shape:(Graph_ctx.weight_shape ctx plan.Plan.program) op ]
  | Plan.Gemm spec -> [ gemm_kernel ~ctx ~plan spec ]
  | Plan.Traversal spec -> [ traversal_kernel ~ctx ~plan spec ]
  | Plan.Fallback f -> fallback_kernels ~ctx f
  | Plan.Fused f -> (
      match List.concat_map (step_kernels ~ctx ~plan) f.Plan.members with
      | [] -> []
      | ks -> [ merge_kernels (Plan.step_name step) ks ])

(* Each buffer of the plan with its placement in the plan's memory plan,
   in buffer order. *)
let placements (plan : Plan.t) =
  let rec placed (b : Plan.buffer) = function
    | (p : Plan.placement) :: rest -> if String.equal p.Plan.var b.Plan.name then (b, p) else placed b rest
    | [] ->
        invalid_arg
          (Printf.sprintf "Pricing.placements: plan %s: buffer %s has no placement" plan.Plan.name b.Plan.name)
  in
  List.map (fun b -> placed b plan.Plan.memory.Plan.placements) plan.Plan.buffers

(* Arena members grouped by where [Exec.run_plan] binds them: at run start
   (untouched buffers, or a plan without steps) or before their first
   step, each group in reverse member order. *)
let bind_points ~nsteps members =
  let pre = ref [] and at = Array.make (max 1 nsteps) [] in
  List.iter
    (fun (m, (p : Plan.placement)) ->
      if p.Plan.first < 0 || nsteps = 0 then pre := m :: !pre
      else at.(p.Plan.first) <- m :: at.(p.Plan.first))
    members;
  (!pre, at)

type schedule = { at_start : Kernel.t array; at_step : Kernel.t array array }

(* The launches of one [Exec.run_plan]: each memset where its buffer is
   bound, each step's kernels after the step's memsets, under its provenance. *)
let schedule ~ctx (plan : Plan.t) =
  let inlined = Plan.inline_zeroed plan in
  let memset (b, p) = match buffer_memset ~ctx ~inlined b with Some k -> Some (k, p) | None -> None in
  let pre, at = bind_points ~nsteps:(List.length plan.Plan.steps) (List.filter_map memset (placements plan)) in
  let step i step =
    let origin, fused = (Plan.step_origin step, Plan.step_constituents step) in
    let prov = Some (Kernel.provenance ~step:i ~origin ~fused (Plan.step_op step)) in
    Array.of_list (at.(i) @ List.map (fun k -> { k with Kernel.prov }) (step_kernels ~ctx ~plan step))
  in
  { at_start = Array.of_list pre; at_step = Array.of_list (List.mapi step plan.Plan.steps) }

(* --- training-step launches ------------------------------------ *)

let loss_kernels ~origin ~rows ~cols =
  let bytes = float_of_int (rows * cols * 4) in
  let reduction name flops =
    Kernel.make ~name ~category:Kernel.Reduction
      ~grid_blocks:(max 1 (rows / 256))
      ~flops ~bytes_coalesced:(2.0 *. bytes)
      ~provenance:(Kernel.provenance ~origin "loss") ()
  in
  [
    reduction "log_softmax" (float_of_int (rows * cols * 5));
    reduction "nll_grad" (float_of_int (rows * cols));
  ]

let bmm_backward_kernel ~shape op =
  let out, flops, bytes =
    match op with
    | Lf.Mat_vec { mat; out; _ } ->
        let w = numel (shape mat) in
        (out, 4.0 *. float_of_int w, w * 4)
    | Lf.Mat_mat { right; out; _ } ->
        let r = shape right in
        let products = float_of_int (numel (shape out)) in
        (out, 4.0 *. products *. float_of_int r.(1), numel r * 4)
  in
  Kernel.make ~name:("bmm_backward_" ^ out) ~category:Kernel.Gemm ~grid_blocks:64 ~flops
    ~bytes_coalesced:(float_of_int bytes) ~graph_proportional:false
    ~provenance:(Kernel.provenance ~origin:"linear_fusion" out) ()

let sgd_kernel ~name ~shape =
  let n = numel shape in
  Kernel.make ~name:("sgd_" ^ name) ~category:Kernel.Reduction ~grid_blocks:32
    ~flops:(float_of_int n)
    ~bytes_coalesced:(float_of_int (n * 8))
    ~graph_proportional:false
    ~provenance:(Kernel.provenance ~origin:"train" "sgd") ()

