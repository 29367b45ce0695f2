(* Test oracle for traversal and fallback steps: a per-edge value
   interpreter.  Each iteration walks the expression tree, boxes every row
   it reads into a fresh [Exec.value], keeps locals in a hash table and
   looks every buffer up by name — the executor's semantics written the
   direct way, with none of its staging.  It replays the executor's
   schedule ({!Exec.traversal_passes}: passes, pair-local gating and the
   parallel/sequential choice) with its own sweeps, so its buffers and
   weight gradients must equal [Exec.run_plan]'s bit for bit at any
   domain count. *)

module Tensor = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Ir = Hector_core.Inter_ir
module Ts = Hector_core.Traversal_spec
module Plan = Hector_core.Plan
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env
module Graph_ctx = Hector_runtime.Graph_ctx

type value = Exec.value = Scalar of float | Vector of float array

type t = {
  ctx : Graph_ctx.t;
  env : Env.t;
  program : Ir.program;
  opaque : (string * Exec.opaque_fn) list;
}

type iter = { edge : int; node : int }

let fail fmt = Format.kasprintf invalid_arg fmt

let to_vector = function Scalar s -> [| s |] | Vector v -> v

let to_scalar = function
  | Scalar s -> s
  | Vector [| s |] -> s
  | Vector v -> fail "expected scalar, got vec<%d>" (Array.length v)

let map_value f = function Scalar s -> Scalar (f s) | Vector v -> Vector (Array.map f v)

let lift2 op a b =
  match (a, b) with
  | Scalar x, Scalar y -> Scalar (op x y)
  | Vector x, Vector y ->
      if Array.length x <> Array.length y then
        fail "vector op dimension mismatch %d vs %d" (Array.length x) (Array.length y);
      Vector (Array.init (Array.length x) (fun i -> op x.(i) y.(i)))
  | Vector x, Scalar y -> Vector (Array.map (fun v -> op v y) x)
  | Scalar x, Vector y -> Vector (Array.map (fun v -> op x v) y)

let graph t = Graph_ctx.graph t.ctx

let row_of t iter ent (entry : Env.entry) =
  match ent with
  | Ir.Cur_edge -> (
      match Graph_ctx.compact_of_space t.ctx entry.Env.space with
      | Some cm -> cm.Hector_graph.Compact_map.row_of_edge.(iter.edge)
      | None -> iter.edge)
  | Ir.Cur_node -> iter.node
  | Ir.Src -> (graph t).G.src.(iter.edge)
  | Ir.Dst -> (graph t).G.dst.(iter.edge)

let read_row (entry : Env.entry) row =
  if entry.Env.dim = 1 then Scalar (Tensor.get2 entry.Env.tensor row 0)
  else Vector (Tensor.row_array entry.Env.tensor row)

let write_row ~accumulate (entry : Env.entry) row v =
  let vec = to_vector v in
  if Array.length vec <> entry.Env.dim then
    fail "write of dim %d into buffer of dim %d" (Array.length vec) entry.Env.dim;
  for j = 0 to entry.Env.dim - 1 do
    let prev = if accumulate then Tensor.get2 entry.Env.tensor row j else 0.0 in
    Tensor.set2 entry.Env.tensor row j (prev +. vec.(j))
  done

let slice_index t iter = function
  | Ir.By_etype -> (graph t).G.etype.(iter.edge)
  | Ir.By_ntype -> (graph t).G.node_type.(iter.node)
  | Ir.By_src_ntype -> (graph t).G.node_type.((graph t).G.src.(iter.edge))
  | Ir.By_dst_ntype -> (graph t).G.node_type.((graph t).G.dst.(iter.edge))
  | Ir.Shared -> 0

let weight_slice t iter name slice = Tensor.slice0 (Env.weight t.env name) (slice_index t iter slice)

let leaky_slope = 0.01

let rec eval t iter locals expr =
  let eval = eval t iter locals in
  match expr with
  | Ir.Const c -> Scalar c
  | Ir.Feature (ent, name) | Ir.Data (ent, name) -> (
      match (ent, Hashtbl.find_opt locals name) with
      | Ir.Cur_edge, Some v -> v
      | _ ->
          let entry = Env.find t.env name in
          read_row entry (row_of t iter ent entry))
  | Ir.Weight (name, slice) ->
      let w = weight_slice t iter name slice in
      if Tensor.ndim w = 1 then
        if Tensor.dim w 0 = 1 then Scalar (Tensor.get1 w 0)
        else Vector (Array.init (Tensor.dim w 0) (Tensor.get1 w))
      else Vector (Tensor.to_flat_array w)
  | Ir.Linear (x, Ir.Weight (w, slice)) ->
      let xv = to_vector (eval x) in
      let wm = weight_slice t iter w slice in
      let k = Tensor.dim wm 0 and n = Tensor.dim wm 1 in
      if Array.length xv <> k then fail "linear: input %d vs weight rows %d" (Array.length xv) k;
      let out = Array.make n 0.0 in
      for i = 0 to k - 1 do
        let xi = xv.(i) in
        if xi <> 0.0 then
          for j = 0 to n - 1 do
            out.(j) <- out.(j) +. (xi *. Tensor.get2 wm i j)
          done
      done;
      if n = 1 then Scalar out.(0) else Vector out
  | Ir.Linear_t (x, Ir.Weight (w, slice)) ->
      let xv = to_vector (eval x) in
      let wm = weight_slice t iter w slice in
      let k = Tensor.dim wm 0 and n = Tensor.dim wm 1 in
      if Array.length xv <> n then fail "linear_t: input %d vs weight cols %d" (Array.length xv) n;
      let out = Array.make k 0.0 in
      for i = 0 to k - 1 do
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (Tensor.get2 wm i j *. xv.(j))
        done;
        out.(i) <- !acc
      done;
      if k = 1 then Scalar out.(0) else Vector out
  | Ir.Linear _ | Ir.Linear_t _ -> fail "linear against non-weight operand"
  | Ir.Inner (a, b) ->
      let av = to_vector (eval a) and bv = to_vector (eval b) in
      if Array.length av <> Array.length bv then
        fail "inner: %d vs %d" (Array.length av) (Array.length bv);
      let acc = ref 0.0 in
      Array.iteri (fun i x -> acc := !acc +. (x *. bv.(i))) av;
      Scalar !acc
  | Ir.Concat (a, b) -> Vector (Array.append (to_vector (eval a)) (to_vector (eval b)))
  | Ir.Slice (a, lo, len) ->
      let av = to_vector (eval a) in
      if lo + len > Array.length av then fail "slice out of range";
      if len = 1 then Scalar av.(lo) else Vector (Array.sub av lo len)
  | Ir.Binop (op, a, b) ->
      let f = match op with Ir.Add -> ( +. ) | Ir.Sub -> ( -. ) | Ir.Mul -> ( *. ) | Ir.Div -> ( /. ) in
      lift2 f (eval a) (eval b)
  | Ir.Unop (op, a) ->
      let f =
        match op with
        | Ir.Exp -> Stdlib.exp
        | Ir.Neg -> fun x -> -.x
        | Ir.Reciprocal -> fun x -> 1.0 /. x
        | Ir.Leaky_relu -> fun x -> if x > 0.0 then x else leaky_slope *. x
        | Ir.Relu -> fun x -> if x > 0.0 then x else 0.0
        | Ir.Rsqrt -> fun x -> 1.0 /. sqrt x
        | Ir.Leaky_relu_grad -> fun x -> if x > 0.0 then 1.0 else leaky_slope
        | Ir.Relu_grad -> fun x -> if x > 0.0 then 1.0 else 0.0
      in
      map_value f (eval a)
  | Ir.Opaque (name, args) -> (
      match List.assoc_opt name t.opaque with
      | Some f -> f (List.map eval args)
      | None -> fail "no fallback implementation registered for %S" name)

(* dW[idx] += x ⊗ dy for matrices, dv[idx] += x * dy for vectors *)
let exec_grad_weight t iter locals ~grads name x dy =
  let slice =
    match Ir.find_decl t.program name with
    | Some (Ir.Weight_mat { slice; _ }) | Some (Ir.Weight_vec { slice; _ }) -> slice
    | _ -> fail "Grad_weight: %S is not a declared weight" name
  in
  let gslice = Tensor.slice0 (grads name) (slice_index t iter slice) in
  let xv = to_vector (eval t iter locals x) in
  let dyv = eval t iter locals dy in
  if Tensor.ndim gslice = 2 then begin
    let dyvec = to_vector dyv in
    for i = 0 to Tensor.dim gslice 0 - 1 do
      if xv.(i) <> 0.0 then
        for j = 0 to Tensor.dim gslice 1 - 1 do
          Tensor.set2 gslice i j (Tensor.get2 gslice i j +. (xv.(i) *. dyvec.(j)))
        done
    done
  end
  else
    let s = to_scalar dyv in
    for i = 0 to Array.length xv - 1 do
      Tensor.set1 gslice i (Tensor.get1 gslice i +. (xv.(i) *. s))
    done

let exec_stmt t iter locals ~grads st =
  match st with
  | Ir.Assign (ent, n, e) -> (
      let v = eval t iter locals e in
      if ent = Ir.Cur_edge && Hashtbl.mem locals n then Hashtbl.replace locals n v
      else
        match (ent, Env.find_opt t.env n) with
        | Ir.Cur_edge, None -> Hashtbl.replace locals n v
        | _, Some entry -> write_row ~accumulate:false entry (row_of t iter ent entry) v
        | _, None -> fail "write to unknown buffer %S" n)
  | Ir.Accumulate (ent, n, e) ->
      let v = eval t iter locals e in
      let entry = Env.find t.env n in
      write_row ~accumulate:true entry (row_of t iter ent entry) v
  | Ir.Grad_weight { name; x; dy } -> exec_grad_weight t iter locals ~grads name x dy
  | Ir.For_each _ -> fail "nested loop inside traversal body"

(* --- sweeps: sequential edge / CSR-neighbour / node loops, or chunked
   destination segments with per-chunk gradient scratch merged in order *)

let scratch_grads t tbl name =
  match Hashtbl.find_opt tbl name with
  | Some g -> g
  | None ->
      let g = Tensor.zeros (Tensor.shape (Env.weight t.env name)) in
      Hashtbl.add tbl name g;
      g

let merge a b =
  Hashtbl.iter
    (fun n g -> match Hashtbl.find_opt a n with Some ga -> Tensor.add_inplace ga g | None -> Hashtbl.add a n g)
    b;
  a

let parallel_sweep t strategy run_iter =
  let g = graph t and csr = Graph_ctx.in_csr t.ctx in
  let scratch =
    Dp.parallel_for_reduce ~grain:Exec.node_grain g.G.num_nodes
      ~init:(fun () -> Hashtbl.create 4)
      ~body:(fun tbl lo hi ->
        let grads = scratch_grads t tbl in
        for v = lo to hi - 1 do
          match strategy with
          | Ts.Node_map -> run_iter ~grads { edge = -1; node = v }
          | Ts.Edge_parallel | Ts.Node_gather ->
              for k = csr.Csr.row_ptr.(v) to csr.Csr.row_ptr.(v + 1) - 1 do
                run_iter ~grads
                  { edge = csr.Csr.eid.(k); node = (if strategy = Ts.Node_gather then v else -1) }
              done
        done;
        tbl)
      ~merge
  in
  Hashtbl.iter (fun n g -> Tensor.add_inplace (Env.weight_grad t.env n) g) scratch

let sequential_sweep t strategy run_iter =
  let g = graph t in
  let grads = Env.weight_grad t.env in
  match strategy with
  | Ts.Edge_parallel ->
      for e = 0 to g.G.num_edges - 1 do
        run_iter ~grads { edge = e; node = -1 }
      done
  | Ts.Node_gather ->
      for v = 0 to g.G.num_nodes - 1 do
        List.iter
          (fun (_, eid) -> run_iter ~grads { edge = eid; node = v })
          (Sampler_oracle.neighbors (Graph_ctx.in_csr t.ctx) v)
      done
  | Ts.Node_map ->
      for v = 0 to g.G.num_nodes - 1 do
        run_iter ~grads { edge = -1; node = v }
      done

let run_passes t strategy ~locals passes =
  List.iter
    (fun (p : Exec.pass) ->
      (* representative masks are resolved here, before any parallel sweep *)
      let stmts =
        List.map
          (fun (st, cls) ->
            let rep =
              match cls with
              | Exec.Per_edge -> None
              | Exec.Per_pair_src -> Some (Graph_ctx.rep_src t.ctx)
              | Exec.Per_pair_dst -> Some (Graph_ctx.rep_dst t.ctx)
            in
            (st, rep))
          p.Exec.stmts
      in
      let run_iter ~grads iter =
        let tbl = Hashtbl.create 4 in
        List.iter (fun n -> Hashtbl.replace tbl n (Scalar 0.0)) locals;
        List.iter
          (fun (st, rep) ->
            let execute = match rep with None -> true | Some r -> r.(iter.edge) in
            if execute then exec_stmt t iter tbl ~grads st)
          stmts
      in
      if p.Exec.parallel then parallel_sweep t strategy run_iter
      else sequential_sweep t strategy run_iter)
    passes

let rec run_step t = function
  | Plan.Traversal spec ->
      run_passes t spec.Ts.strategy ~locals:spec.Ts.locals (Exec.traversal_passes t.env spec)
  | Plan.Fallback f -> run_passes t f.Plan.strategy ~locals:[] (Exec.fallback_passes t.env f)
  | Plan.Fused f -> List.iter (run_step t) f.Plan.members
  | Plan.Gemm _ | Plan.Weight_op _ -> invalid_arg "Oracle: only traversal and fallback steps"

(* Run the plan's traversal/fallback steps against buffers and weights
   already bound in [env]; weight gradients land in [env]'s stacks. *)
let run ?(opaque = []) ~ctx ~env (plan : Plan.t) =
  List.iter (run_step { ctx; env; program = plan.Plan.program; opaque }) plan.Plan.steps
