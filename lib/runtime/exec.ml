module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Memory = Hector_gpu.Memory
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Cm = Hector_graph.Compact_map
module Ir = Hector_core.Inter_ir
module Gs = Hector_core.Gemm_spec
module Ts = Hector_core.Traversal_spec
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Lf = Hector_core.Linear_fusion
module Mg = Hector_graph.Metagraph
module Dp = Hector_tensor.Domain_pool
module Bp = Hector_core.Buffer_plan

type value = Scalar of float | Vector of float array

type opaque_fn = value list -> value

(* --- plan-lifetime arena (see run_plan below) ----------------------- *)

(* One plan buffer backed by a storage-slot view. *)
type managed = {
  mbuf : Plan.buffer;
  mview : Tensor.t;  (* [rows × dim] view into the slot backing *)
  muninit : bool;  (* fully defined by its first-touching step: skip zeroing *)
  mutable minitialized : bool;  (* has the view ever been zero-filled/bound *)
}

type arena = {
  abind : managed list array;  (* step index -> buffers bound before the step *)
  aunbind : string list array;  (* step index -> temps unbound after the step *)
  apre : managed list;  (* buffers no step touches: bound at run start *)
  aother : Plan.buffer list;  (* plan buffers the arena does not manage *)
}

(* Cross-executor arena storage: slot backings keyed by (plan name, slot),
   each kept at its high-water capacity.  A fresh executor handed the same
   slab rebuilds its arenas as prefix views of the cached backings instead
   of allocating — the serving steady state.  The accounting handle of the
   allocator that charged a backing rides along so growth can release the
   superseded charge. *)
type slab = {
  sepoch : int;
  sbackings : (string * int, Memory.t * Memory.allocation * Tensor.t) Hashtbl.t;
}

let create_slab ?(epoch = 0) () = { sepoch = epoch; sbackings = Hashtbl.create 32 }
let slab_epoch slab = slab.sepoch

type t = {
  engine : Engine.t;
  ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  planner : bool;
  slab : slab option;
  mutable arenas : (Plan.t * bool * arena) list;
  mutable cur_prov : Kernel.provenance option;
  mutable capture : Kernel.t list ref option;
}

let planner_default () = (Knobs.current ()).Knobs.arena

let create ?(opaque = []) ?planner ?slab ~engine ~ctx ~env () =
  let planner = match planner with Some p -> p | None -> planner_default () in
  { engine; ctx; env; opaque; planner; slab; arenas = []; cur_prov = None; capture = None }

(* Launch a kernel under the provenance of the step being executed (set by
   [run_step]); kernels that carry their own tag keep it.  While a fused
   step is executing its members ([capture] set), launches are recorded
   instead of charged — the fused step then launches one merged kernel. *)
let launch_attr t (k : Kernel.t) =
  let k =
    match (k.Kernel.prov, t.cur_prov) with
    | None, Some _ -> { k with Kernel.prov = t.cur_prov }
    | _ -> k
  in
  match t.capture with
  | Some captured -> captured := k :: !captured
  | None -> Engine.launch t.engine k

let value_dim = function Scalar _ -> 1 | Vector v -> Array.length v

let fail fmt = Format.kasprintf invalid_arg fmt

(* ------------------------------------------------------------------ *)
(* value helpers                                                       *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* row access                                                          *)
(* ------------------------------------------------------------------ *)

type iter = { edge : int; node : int }

let node_of t iter = function
  | Ir.Cur_node -> iter.node
  | Ir.Src -> t.ctx.Graph_ctx.graph.G.src.(iter.edge)
  | Ir.Dst -> t.ctx.Graph_ctx.graph.G.dst.(iter.edge)
  | Ir.Cur_edge -> fail "node_of: edge entity"

let row_of t iter ent (entry : Env.entry) =
  match ent with
  | Ir.Cur_edge -> Graph_ctx.row_of_edge t.ctx entry.Env.space iter.edge
  | Ir.Cur_node | Ir.Src | Ir.Dst -> node_of t iter ent

(* Row reads blit the whole row in one shot instead of an [Array.init]
   with a bounds-checked closure per element; scalar writes avoid the
   one-element [Vector] temporary entirely.  (Returning a shared scratch
   buffer from [read_row] would be unsound: the value may be captured in
   the traversal's per-edge locals and must survive later reads.) *)
let read_row (entry : Env.entry) row =
  if entry.Env.dim = 1 then Scalar (Tensor.get2 entry.Env.tensor row 0)
  else Vector (Tensor.row_array entry.Env.tensor row)

let write_row ~accumulate (entry : Env.entry) row v =
  match v with
  | Scalar s when entry.Env.dim = 1 ->
      let prev = if accumulate then Tensor.get2 entry.Env.tensor row 0 else 0.0 in
      Tensor.set2 entry.Env.tensor row 0 (prev +. s)
  | _ ->
      let vec = to_vector v in
      if Array.length vec <> entry.Env.dim then
        fail "write of dim %d into buffer of dim %d" (Array.length vec) entry.Env.dim;
      for j = 0 to entry.Env.dim - 1 do
        let prev = if accumulate then Tensor.get2 entry.Env.tensor row j else 0.0 in
        Tensor.set2 entry.Env.tensor row j (prev +. vec.(j))
      done

(* ------------------------------------------------------------------ *)
(* weight access                                                       *)
(* ------------------------------------------------------------------ *)

let slice_index t iter = function
  | Ir.By_etype -> t.ctx.Graph_ctx.graph.G.etype.(iter.edge)
  | Ir.By_ntype -> t.ctx.Graph_ctx.graph.G.node_type.(iter.node)
  | Ir.By_src_ntype -> t.ctx.Graph_ctx.graph.G.node_type.(t.ctx.Graph_ctx.graph.G.src.(iter.edge))
  | Ir.By_dst_ntype -> t.ctx.Graph_ctx.graph.G.node_type.(t.ctx.Graph_ctx.graph.G.dst.(iter.edge))
  | Ir.Shared -> 0

let weight_slice t iter name slice =
  let stack = Env.weight t.env name in
  Tensor.slice0 stack (slice_index t iter slice)

(* ------------------------------------------------------------------ *)
(* expression evaluation (traversal + fallback interpreter)            *)
(* ------------------------------------------------------------------ *)

let leaky_slope = 0.01

let rec eval t iter locals expr =
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
      let xv = to_vector (eval t iter locals x) in
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
      let xv = to_vector (eval t iter locals x) in
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
      let av = to_vector (eval t iter locals a) and bv = to_vector (eval t iter locals b) in
      if Array.length av <> Array.length bv then
        fail "inner: %d vs %d" (Array.length av) (Array.length bv);
      let acc = ref 0.0 in
      Array.iteri (fun i x -> acc := !acc +. (x *. bv.(i))) av;
      Scalar !acc
  | Ir.Concat (a, b) ->
      Vector (Array.append (to_vector (eval t iter locals a)) (to_vector (eval t iter locals b)))
  | Ir.Slice (a, lo, len) ->
      let av = to_vector (eval t iter locals a) in
      if lo + len > Array.length av then fail "slice out of range";
      if len = 1 then Scalar av.(lo) else Vector (Array.sub av lo len)
  | Ir.Binop (op, a, b) ->
      let f =
        match op with Ir.Add -> ( +. ) | Ir.Sub -> ( -. ) | Ir.Mul -> ( *. ) | Ir.Div -> ( /. )
      in
      lift2 f (eval t iter locals a) (eval t iter locals b)
  | Ir.Unop (op, a) ->
      let v = eval t iter locals a in
      let f =
        match op with
        | Ir.Exp -> Stdlib.exp
        | Ir.Neg -> (fun x -> -.x)
        | Ir.Reciprocal -> (fun x -> 1.0 /. x)
        | Ir.Leaky_relu -> (fun x -> if x > 0.0 then x else leaky_slope *. x)
        | Ir.Relu -> (fun x -> if x > 0.0 then x else 0.0)
        | Ir.Rsqrt -> (fun x -> 1.0 /. sqrt x)
        | Ir.Leaky_relu_grad -> (fun x -> if x > 0.0 then 1.0 else leaky_slope)
        | Ir.Relu_grad -> (fun x -> if x > 0.0 then 1.0 else 0.0)
      in
      map_value f v
  | Ir.Opaque (name, args) -> (
      match List.assoc_opt name t.opaque with
      | Some f -> f (List.map (eval t iter locals) args)
      | None -> fail "no fallback implementation registered for %S" name)

(* Accumulate a weight gradient contribution:
   matrices get dW[idx] += x ⊗ dy, vectors get dv[idx] += x * dy.
   [grads] resolves the accumulation target: the environment's gradient
   stack on the sequential path, a per-domain scratch stack during a
   parallel sweep (merged once afterwards — the pre-reduction that stands
   in for the paper's warp-level reduction before atomics). *)
let exec_grad_weight t iter locals ~program ~grads name x dy =
  let slice =
    match Ir.find_decl program name with
    | Some (Ir.Weight_mat { slice; _ }) | Some (Ir.Weight_vec { slice; _ }) -> slice
    | _ -> fail "Grad_weight: %S is not a declared weight" name
  in
  let idx = slice_index t iter slice in
  let grad = grads name in
  let gslice = Tensor.slice0 grad idx in
  let xv = to_vector (eval t iter locals x) in
  let dyv = eval t iter locals dy in
  match (Tensor.ndim gslice, dyv) with
  | 2, _ ->
      let dyvec = to_vector dyv in
      let k = Tensor.dim gslice 0 and n = Tensor.dim gslice 1 in
      if Array.length xv <> k || Array.length dyvec <> n then
        fail "Grad_weight %S: outer(%d, %d) vs %dx%d" name (Array.length xv) (Array.length dyvec)
          k n;
      for i = 0 to k - 1 do
        if xv.(i) <> 0.0 then
          for j = 0 to n - 1 do
            Tensor.set2 gslice i j (Tensor.get2 gslice i j +. (xv.(i) *. dyvec.(j)))
          done
      done
  | 1, dy_s ->
      let s = to_scalar dy_s in
      if Array.length xv <> Tensor.dim gslice 0 then
        fail "Grad_weight %S: %d vs %d" name (Array.length xv) (Tensor.dim gslice 0);
      for i = 0 to Array.length xv - 1 do
        Tensor.set1 gslice i (Tensor.get1 gslice i +. (xv.(i) *. s))
      done
  | _ -> fail "Grad_weight %S: unsupported gradient rank" name

(* ------------------------------------------------------------------ *)
(* analytic traversal cost                                             *)
(* ------------------------------------------------------------------ *)

(* Per-iteration traffic/flops of a statement body, used to build the
   kernel descriptor.  Dims come from the environment and weight decls. *)
type traffic = {
  mutable flops : float;
  mutable coalesced : float;
  mutable gathered : float;
  mutable atomic : float;
}

(* The analytic cost functions below are parameterized over the bare
   environment (and, further down, the graph context) rather than the
   executor: {!Plan_cost} reuses them verbatim to price a compiled plan
   without running it, so the estimate and the execution charge are the
   same formula by construction. *)
let expr_dim env program locals_dims expr =
  let rec dim e =
    match e with
    | Ir.Const _ -> 1
    | Ir.Feature (_, n) | Ir.Data (_, n) -> (
        match List.assoc_opt n locals_dims with
        | Some d -> d
        | None -> (
            match Env.find_opt env n with
            | Some entry -> entry.Env.dim
            | None -> (
                match Ir.find_decl program n with
                | Some (Ir.Node_input { dim; _ }) | Some (Ir.Edge_input { dim; _ }) -> dim
                | _ -> 1)))
    | Ir.Weight (n, _) -> (
        match Ir.find_decl program n with
        | Some (Ir.Weight_vec { dim; _ }) -> dim
        | Some (Ir.Weight_mat { rows; cols; _ }) -> rows * cols
        | _ -> 1)
    | Ir.Linear (_, Ir.Weight (w, _)) -> (
        match Ir.find_decl program w with
        | Some (Ir.Weight_mat { cols; _ }) -> cols
        | _ -> 1)
    | Ir.Linear_t (_, Ir.Weight (w, _)) -> (
        match Ir.find_decl program w with
        | Some (Ir.Weight_mat { rows; _ }) -> rows
        | _ -> 1)
    | Ir.Linear (x, _) | Ir.Linear_t (x, _) -> dim x
    | Ir.Inner _ -> 1
    | Ir.Concat (a, b) -> dim a + dim b
    | Ir.Slice (_, _, len) -> len
    | Ir.Binop (_, a, b) -> max (dim a) (dim b)
    | Ir.Unop (_, a) -> dim a
    | Ir.Opaque (_, args) -> ( match args with [] -> 1 | a :: _ -> dim a)
  in
  dim expr

(* Compact rows destroy the coalescing that edge-parallel threads enjoy on
   vanilla per-edge tensors: neighbouring edges hit scattered compact rows
   through an extra indirection.  The factor models the lost transaction
   efficiency on top of the generic gather penalty (paper §4.4: on AM the
   "more complicated access scheme" makes traversals offset the GEMM
   savings). *)
let compact_access_penalty = 1.5

let add_expr_traffic env program locals traffic strategy expr =
  let dim = expr_dim env program locals in
  let rec walk e =
    (match e with
    | Ir.Const _ -> ()
    | Ir.Feature (ent, n) | Ir.Data (ent, n) -> (
        if not (List.mem_assoc n locals) then
          let d = dim e in
          let bytes = float_of_int (d * 4) in
          match ent with
          | Ir.Cur_edge -> (
              match Env.find_opt env n with
              | Some { Env.space = Mat.Rows_compact_src | Mat.Rows_compact_dst; _ } ->
                  traffic.gathered <-
                    traffic.gathered +. (bytes *. compact_access_penalty) +. 4.0
              | _ ->
                  if strategy = Ts.Node_gather then
                    traffic.gathered <- traffic.gathered +. bytes
                  else traffic.coalesced <- traffic.coalesced +. bytes)
          | Ir.Src | Ir.Dst -> traffic.gathered <- traffic.gathered +. bytes
          | Ir.Cur_node -> traffic.coalesced <- traffic.coalesced +. bytes)
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

(* Per-iteration traffic of ONE statement (adjacency reads are charged by
   the caller, once per edge). *)
let stmt_traffic env program (spec : Ts.t) st =
  let locals_dims =
    List.map
      (fun n ->
        let d = ref 1 in
        List.iter
          (fun st ->
            match st with
            | Ir.Assign (Ir.Cur_edge, v, e) when String.equal v n ->
                d := expr_dim env program [] e
            | _ -> ())
          spec.Ts.body;
        (n, !d))
      spec.Ts.locals
  in
  let traffic = { flops = 0.0; coalesced = 0.0; gathered = 0.0; atomic = 0.0 } in
  let strategy = spec.Ts.strategy in
  let warp = spec.Ts.schedule.Ts.warp_accumulate in
  let add_write ent n accumulate =
    let d =
      match Env.find_opt env n with
      | Some entry -> entry.Env.dim
      | None -> ( match List.assoc_opt n locals_dims with Some d -> max d 1 | None -> 1)
    in
    let bytes = float_of_int (d * 4) in
    if List.mem n spec.Ts.locals then ()
    else
      match ent with
      | Ir.Cur_edge -> (
          match Env.find_opt env n with
          | Some { Env.space = Mat.Rows_compact_src | Mat.Rows_compact_dst; _ } ->
              traffic.gathered <-
                traffic.gathered +. (bytes *. compact_access_penalty) +. 4.0
          | _ -> traffic.coalesced <- traffic.coalesced +. bytes)
      | Ir.Src | Ir.Dst ->
          if accumulate && strategy = Ts.Edge_parallel then
            traffic.atomic <- traffic.atomic +. (bytes /. if warp then 8.0 else 1.0)
          else traffic.gathered <- traffic.gathered +. bytes
      | Ir.Cur_node -> traffic.coalesced <- traffic.coalesced +. bytes
  in
  (match st with
  | Ir.Assign (ent, n, e) ->
      add_expr_traffic env program locals_dims traffic strategy e;
      add_write ent n false
  | Ir.Accumulate (ent, n, e) ->
      add_expr_traffic env program locals_dims traffic strategy e;
      add_write ent n true
  | Ir.Grad_weight { x; dy; _ } ->
      add_expr_traffic env program locals_dims traffic strategy x;
      add_expr_traffic env program locals_dims traffic strategy dy;
      let d = expr_dim env program locals_dims x * expr_dim env program locals_dims dy in
      traffic.atomic <- traffic.atomic +. (float_of_int (d * 4) /. if warp then 8.0 else 1.0)
  | Ir.For_each _ -> ());
  traffic

(* ------------------------------------------------------------------ *)
(* traversal execution                                                 *)
(* ------------------------------------------------------------------ *)

let exec_stmt t iter locals ~program ~grads st =
  match st with
  | Ir.Assign (ent, n, e) ->
      let v = eval t iter locals e in
      if ent = Ir.Cur_edge && Hashtbl.mem locals n then Hashtbl.replace locals n v
      else begin
        match (ent, Env.find_opt t.env n) with
        | Ir.Cur_edge, None -> Hashtbl.replace locals n v (* local first write *)
        | _, Some entry -> write_row ~accumulate:false entry (row_of t iter ent entry) v
        | _, None -> fail "write to unknown buffer %S" n
      end
  | Ir.Accumulate (ent, n, e) ->
      let v = eval t iter locals e in
      let entry = Env.find t.env n in
      write_row ~accumulate:true entry (row_of t iter ent entry) v
  | Ir.Grad_weight { name; x; dy } -> exec_grad_weight t iter locals ~program ~grads name x dy
  | Ir.For_each _ -> fail "nested loop inside traversal body"

let env_grads t name = Env.weight_grad t.env name

(* --- pair-local statements (the compaction compute saving, §3.1.3) ---

   A statement whose reads and writes are all determined by the same
   (etype, endpoint) pair executes once per pair, not once per edge: for
   forward assigns this is the "compute the data once for each pair"
   saving; for gradient accumulations it is required for correctness,
   because a pair-space gradient already aggregates every edge of the
   pair. *)

type stmt_iteration = Per_edge | Per_pair_src | Per_pair_dst

(* constraints a set of reads places on pair-locality:
   - [src_ok]/[dst_ok]: every read is constant within a (etype, src) /
     (etype, dst) pair — necessary for any pair-local execution;
   - [anchored]: some read actually depends on the pair (a constant-only
     statement is never pair-local);
   - [compact_src_read]/[compact_dst_read]: a read of a pair-space tensor,
     i.e. a value (typically an upstream gradient) that is already a
     per-pair aggregate.  Accumulations may only become pair-local when
     they consume such a value — a node-level value read through the
     shared endpoint still contributes once per edge. *)
type sides = {
  mutable src_ok : bool;
  mutable dst_ok : bool;
  mutable anchored : bool;
  mutable grad_compact_src : bool;  (** upstream gradient read from a src-pair tensor *)
  mutable grad_compact_dst : bool;
  mutable grad_other : bool;  (** upstream gradient read that is NOT pair-aggregated *)
}

let read_sides env ~locals_list sides expr =
  Ir.iter_expr
    (fun e ->
      match e with
      | Ir.Feature (ent, n) | Ir.Data (ent, n) -> (
          match ent with
          | Ir.Cur_node ->
              sides.src_ok <- false;
              sides.dst_ok <- false;
              if Hector_core.Autodiff.is_grad_name n then sides.grad_other <- true
          | Ir.Src ->
              sides.dst_ok <- false;
              sides.anchored <- true;
              if Hector_core.Autodiff.is_grad_name n then sides.grad_other <- true
          | Ir.Dst ->
              sides.src_ok <- false;
              sides.anchored <- true;
              if Hector_core.Autodiff.is_grad_name n then sides.grad_other <- true
          | Ir.Cur_edge -> (
              let is_grad = Hector_core.Autodiff.is_grad_name n in
              if List.mem n locals_list then begin
                sides.src_ok <- false;
                sides.dst_ok <- false;
                if is_grad then sides.grad_other <- true
              end
              else
                match Env.find_opt env n with
                | Some { Env.space = Mat.Rows_compact_src; _ } ->
                    sides.dst_ok <- false;
                    sides.anchored <- true;
                    if is_grad then sides.grad_compact_src <- true
                | Some { Env.space = Mat.Rows_compact_dst; _ } ->
                    sides.src_ok <- false;
                    sides.anchored <- true;
                    if is_grad then sides.grad_compact_dst <- true
                | _ ->
                    sides.src_ok <- false;
                    sides.dst_ok <- false;
                    if is_grad then sides.grad_other <- true))
      | Ir.Weight (_, Ir.By_src_ntype) -> sides.dst_ok <- false
      | Ir.Weight (_, Ir.By_dst_ntype) -> sides.src_ok <- false
      | Ir.Weight (_, Ir.By_ntype) ->
          sides.src_ok <- false;
          sides.dst_ok <- false
      | _ -> ())
    expr

let classify_stmt env (spec : Ts.t) st =
  if spec.Ts.strategy <> Ts.Edge_parallel then Per_edge
  else
    let sides =
      {
        src_ok = true;
        dst_ok = true;
        anchored = false;
        grad_compact_src = false;
        grad_compact_dst = false;
        grad_other = false;
      }
    in
    let locals_list = spec.Ts.locals in
    (* which pair side the write target is anchored on:
       - a compact tensor row is anchored on its own side;
       - a node write through Src (Dst) is anchored on the source
         (destination) side: every edge of such a pair shares that
         endpoint, so a once-per-pair execution still hits the right row;
       - everything else is unanchored *)
    let target_side =
      match st with
      | Ir.Assign (Ir.Cur_edge, n, e) | Ir.Accumulate (Ir.Cur_edge, n, e) ->
          read_sides env ~locals_list sides e;
          if List.mem n locals_list then `None
          else (
            match Env.find_opt env n with
            | Some { Env.space = Mat.Rows_compact_src; _ } -> `Src
            | Some { Env.space = Mat.Rows_compact_dst; _ } -> `Dst
            | _ -> `None)
      | Ir.Assign (Ir.Src, _, e) | Ir.Accumulate (Ir.Src, _, e) ->
          read_sides env ~locals_list sides e;
          `Src
      | Ir.Assign (Ir.Dst, _, e) | Ir.Accumulate (Ir.Dst, _, e) ->
          read_sides env ~locals_list sides e;
          `Dst
      | Ir.Grad_weight { x; dy; _ } ->
          read_sides env ~locals_list sides x;
          read_sides env ~locals_list sides dy;
          `Weight
      | Ir.Assign _ | Ir.Accumulate _ | Ir.For_each _ ->
          sides.src_ok <- false;
          sides.dst_ok <- false;
          `None
    in
    (* accumulations (and weight gradients) represent one contribution per
       iteration of the forward statement they differentiate: pair-local
       only when every upstream gradient they consume is itself a per-pair
       aggregate of that side *)
    let pair_grads_src = sides.grad_compact_src && not (sides.grad_compact_dst || sides.grad_other) in
    let pair_grads_dst = sides.grad_compact_dst && not (sides.grad_compact_src || sides.grad_other) in
    match (st, target_side) with
    (* writes are idempotent: the statement may run once per pair whenever
       its value is pair-constant — the compaction CSE saving *)
    | Ir.Assign (Ir.Cur_edge, _, _), `Src when sides.src_ok && sides.anchored -> Per_pair_src
    | Ir.Assign (Ir.Cur_edge, _, _), `Dst when sides.dst_ok && sides.anchored -> Per_pair_dst
    | Ir.Accumulate _, (`Src | `Weight) when sides.src_ok && pair_grads_src -> Per_pair_src
    | Ir.Accumulate _, (`Dst | `Weight) when sides.dst_ok && pair_grads_dst -> Per_pair_dst
    | Ir.Grad_weight _, _ ->
        if sides.src_ok && pair_grads_src then Per_pair_src
        else if sides.dst_ok && pair_grads_dst then Per_pair_dst
        else Per_edge
    | _ -> Per_edge

(* A statement body must split into sequential passes where a statement
   reads a compact-space variable that earlier statements of the same pass
   accumulate per-edge: the reader needs the pair total, which only exists
   after the whole edge sweep.  (The node-gradient analogue is handled by
   the backward generator's segment splitting; this one is layout-induced
   and so can only be seen here.) *)
let split_passes env (classes : (Ir.stmt * stmt_iteration) list) =
  let is_compact n =
    match Env.find_opt env n with
    | Some { Env.space = Mat.Rows_compact_src | Mat.Rows_compact_dst; _ } -> true
    | _ -> false
  in
  let reads_dirty dirty st =
    List.exists
      (Ir.exists_expr (function
        | Ir.Data (Ir.Cur_edge, n) | Ir.Feature (Ir.Cur_edge, n) -> List.mem n dirty
        | _ -> false))
      (Ir.stmt_exprs st)
  in
  let passes, current, _ =
    List.fold_left
      (fun (passes, current, dirty) ((st, cls) as item) ->
        let passes, current, dirty =
          if reads_dirty dirty st then (List.rev current :: passes, [], []) else (passes, current, dirty)
        in
        let dirty =
          match (st, cls) with
          | Ir.Accumulate (Ir.Cur_edge, n, _), Per_edge when is_compact n -> n :: dirty
          | _ -> dirty
        in
        (passes, item :: current, dirty))
      ([], [], []) classes
  in
  let passes = List.rev (List.rev current :: passes) |> List.filter (fun p -> p <> []) in
  (* register locals defined in an earlier pass must be recomputed in any
     later pass that reads them: prepend their (pure, single-assignment)
     defining statements, transitively *)
  let local_defs =
    List.filter_map
      (fun ((st, _) as item) ->
        match st with
        | Ir.Assign (Ir.Cur_edge, n, _) when Env.find_opt env n = None -> Some (n, item)
        | _ -> None)
      classes
  in
  let reads_local pass n =
    List.exists
      (fun (st, _) ->
        List.exists
          (Ir.exists_expr (function
            | Ir.Data (Ir.Cur_edge, m) -> String.equal m n
            | _ -> false))
          (Ir.stmt_exprs st))
      pass
  in
  List.map
    (fun pass ->
      let rec close pass =
        let missing =
          List.filter
            (fun (n, item) -> reads_local pass n && not (List.memq item pass))
            local_defs
        in
        if missing = [] then pass else close (List.map snd missing @ pass)
      in
      close pass)
    passes

(* ------------------------------------------------------------------ *)
(* multicore traversal sweeps                                          *)
(* ------------------------------------------------------------------ *)

(* The parallel backend re-expresses an edge loop as a node × incident-
   edge loop over the incoming-CSR view (the paper's edge-loop ⇔
   node×edge transform) and partitions the {e destination nodes} across
   domains: every output row a statement may touch is then owned by
   exactly one domain, so accumulations need no synchronisation — the CPU
   analogue of Hector's warp-level pre-reduction before atomics.  Weight
   gradients, whose rows are shared by construction, accumulate into
   per-domain scratch stacks merged in deterministic chunk order.

   Because the CSR stores each destination's edges in ascending edge id,
   the per-row accumulation order matches the sequential edge loop
   exactly; only the grad-scratch merge reassociates floating point. *)

type grad_scratch = (string, Tensor.t) Hashtbl.t

let scratch_grads t (tbl : grad_scratch) name =
  match Hashtbl.find_opt tbl name with
  | Some g -> g
  | None ->
      let g = Tensor.zeros (Tensor.shape (Env.weight t.env name)) in
      Hashtbl.add tbl name g;
      g

let merge_grad_scratch (a : grad_scratch) (b : grad_scratch) =
  Hashtbl.iter
    (fun n g ->
      match Hashtbl.find_opt a n with
      | Some ga -> Tensor.add_inplace ga g
      | None -> Hashtbl.add a n g)
    b;
  a

let apply_grad_scratch t (tbl : grad_scratch) =
  Hashtbl.iter (fun n g -> Tensor.add_inplace (Env.weight_grad t.env n) g) tbl

(* How many destination nodes one chunk takes; small because the
   interpreted statement bodies are orders of magnitude heavier than the
   chunk bookkeeping. *)
let node_grain = 32

(* Conservative safety analysis: may this pass be partitioned by
   destination segments (or node ranges, for [Node_map]) without two
   domains racing on a row?  Unsafe passes keep the sequential loop. *)
let pass_parallelizable env (spec_locals : string list) strategy pass =
  let is_local n = List.mem n spec_locals || Env.find_opt env n = None in
  let space_of n = Option.map (fun (e : Env.entry) -> e.Env.space) (Env.find_opt env n) in
  (* (name, entity) of every buffer read *)
  let reads =
    List.concat_map
      (fun (st, _) ->
        List.concat_map
          (fun e ->
            let acc = ref [] in
            Ir.iter_expr
              (function
                | Ir.Feature (ent, n) | Ir.Data (ent, n) ->
                    if not (is_local n) then acc := (n, ent) :: !acc
                | _ -> ())
              e;
            !acc)
          (Ir.stmt_exprs st))
      pass
  in
  (* (name, entity, class) of every buffer write; locals excluded *)
  let writes =
    List.filter_map
      (fun (st, cls) ->
        match st with
        | Ir.Assign (ent, n, _) | Ir.Accumulate (ent, n, _) ->
            if ent = Ir.Cur_edge && is_local n then None else Some (n, ent, cls)
        | Ir.Grad_weight _ | Ir.For_each _ -> None)
      pass
  in
  let no_for_each =
    List.for_all (fun (st, _) -> match st with Ir.For_each _ -> false | _ -> true) pass
  in
  let write_safe (n, ent, cls) =
    match ent with
    | Ir.Src -> false (* source rows cross destination segments *)
    | Ir.Dst -> true (* the partition key itself *)
    | Ir.Cur_node -> strategy <> Ts.Edge_parallel
    | Ir.Cur_edge -> (
        match space_of n with
        | Some Mat.Rows_edges -> true (* one row per edge *)
        | Some Mat.Rows_compact_dst -> true (* a pair's edges share the dst *)
        | Some Mat.Rows_compact_src ->
            (* only the unique representative edge writes the row *)
            cls = Per_pair_src
        | Some Mat.Rows_nodes | None -> false)
  in
  (* A name both written and read inside one pass is only safe when every
     read resolves to a row the writing domain also owns (and the CSR's
     ascending-edge-id row order preserves the sequential interleaving). *)
  let conflict_safe (n, _, _) =
    let read_ents = List.filter_map (fun (m, e) -> if String.equal m n then Some e else None) reads in
    let write_ents = List.filter_map (fun (m, e, _) -> if String.equal m n then Some e else None) writes in
    let dst_local e = e = Ir.Dst || (e = Ir.Cur_node && strategy <> Ts.Edge_parallel) in
    List.for_all
      (fun re ->
        match re with
        | Ir.Src -> false
        | Ir.Dst | Ir.Cur_node -> dst_local re && List.for_all dst_local write_ents
        | Ir.Cur_edge -> (
            match space_of n with
            | Some Mat.Rows_edges | Some Mat.Rows_compact_dst ->
                List.for_all (fun we -> we = Ir.Cur_edge) write_ents
            | _ -> false))
      read_ents
  in
  no_for_each
  && List.for_all write_safe writes
  && List.for_all
       (fun w ->
         let (n, _, _) = w in
         (not (List.exists (fun (m, _) -> String.equal m n) reads)) || conflict_safe w)
       writes

(* Run [run_iter] over every (edge, node) iteration of the strategy,
   destination-segmented across the domain pool, with per-domain gradient
   scratch.  [run_iter] receives the gradient sink to use. *)
let parallel_sweep t strategy run_iter =
  let g = t.ctx.Graph_ctx.graph in
  let scratch =
    match strategy with
    | Ts.Edge_parallel | Ts.Node_gather ->
        let csr = t.ctx.Graph_ctx.in_csr in
        let row_ptr = csr.Csr.row_ptr and eid = csr.Csr.eid in
        let node = match strategy with Ts.Node_gather -> fun v -> v | _ -> fun _ -> -1 in
        Dp.parallel_for_reduce ~grain:node_grain g.G.num_nodes
          ~init:(fun () -> Hashtbl.create 4)
          ~body:(fun tbl lo hi ->
            let grads = scratch_grads t tbl in
            for v = lo to hi - 1 do
              for k = row_ptr.(v) to row_ptr.(v + 1) - 1 do
                run_iter ~grads { edge = eid.(k); node = node v }
              done
            done;
            tbl)
          ~merge:merge_grad_scratch
    | Ts.Node_map ->
        Dp.parallel_for_reduce ~grain:node_grain g.G.num_nodes
          ~init:(fun () -> Hashtbl.create 4)
          ~body:(fun tbl lo hi ->
            let grads = scratch_grads t tbl in
            for v = lo to hi - 1 do
              run_iter ~grads { edge = -1; node = v }
            done;
            tbl)
          ~merge:merge_grad_scratch
  in
  apply_grad_scratch t scratch

let sequential_sweep t strategy run_iter =
  let g = t.ctx.Graph_ctx.graph in
  let grads = env_grads t in
  match strategy with
  | Ts.Edge_parallel ->
      for e = 0 to g.G.num_edges - 1 do
        run_iter ~grads { edge = e; node = -1 }
      done
  | Ts.Node_gather ->
      let csr = t.ctx.Graph_ctx.in_csr in
      for v = 0 to g.G.num_nodes - 1 do
        List.iter
          (fun (_, eid) -> run_iter ~grads { edge = eid; node = v })
          (Csr.neighbors csr v)
      done
  | Ts.Node_map ->
      for v = 0 to g.G.num_nodes - 1 do
        run_iter ~grads { edge = -1; node = v }
      done

(* The single launch charged for a whole traversal spec (passes share it):
   per-edge statements iterate over edges (or nodes for Node_map),
   pair-local statements only over their pair count. *)
let traversal_kernel ~env ~ctx ~program ~layout (spec : Ts.t) =
  let g = ctx.Graph_ctx.graph in
  let classes = List.map (fun st -> (st, classify_stmt env spec st)) spec.Ts.body in
  let iters =
    match spec.Ts.strategy with
    | Ts.Edge_parallel | Ts.Node_gather -> g.G.num_edges
    | Ts.Node_map -> g.G.num_nodes
  in
  (* adjacency id-retrieval closures (§3.3.5): COO is three coalesced
     subscripts; CSR gets the destination from a binary ownership search in
     the row-pointer array *)
  let adjacency_coalesced, adjacency_gathered =
    match layout.Hector_core.Layout.adjacency with
    | Hector_core.Layout.Coo -> (12.0, 0.0)
    | Hector_core.Layout.Csr ->
        let log_n = Float.max 1.0 (Float.log2 (float_of_int (max 2 g.G.num_nodes))) in
        (8.0, 4.0 *. log_n)
  in
  let iters_of = function
    | Per_edge -> iters
    | Per_pair_src -> ctx.Graph_ctx.compact_src.Cm.num_pairs
    | Per_pair_dst -> ctx.Graph_ctx.compact_dst.Cm.num_pairs
  in
  let total = { flops = 0.0; coalesced = 0.0; gathered = 0.0; atomic = 0.0 } in
  (* adjacency reads once per edge *)
  if spec.Ts.strategy <> Ts.Node_map then begin
    total.coalesced <- total.coalesced +. (adjacency_coalesced *. float_of_int iters);
    total.gathered <- total.gathered +. (adjacency_gathered *. float_of_int iters)
  end;
  List.iter
    (fun (st, cls) ->
      let one = stmt_traffic env program spec st in
      let n = float_of_int (iters_of cls) in
      total.flops <- total.flops +. (one.flops *. n);
      total.coalesced <- total.coalesced +. (one.coalesced *. n);
      total.gathered <- total.gathered +. (one.gathered *. n);
      total.atomic <- total.atomic +. (one.atomic *. n))
    classes;
  let blocks =
    match spec.Ts.strategy with
    | Ts.Node_gather -> max 1 g.G.num_nodes
    | _ -> max 1 ((iters + 255) / 256)
  in
  Kernel.make ~name:(Ts.name spec) ~category:Kernel.Traversal ~grid_blocks:blocks
    ~threads_per_block:256 ~flops:total.flops ~bytes_coalesced:total.coalesced
    ~bytes_gathered:total.gathered ~bytes_atomic:total.atomic ()

let run_traversal t ~program ~layout (spec : Ts.t) =
  let classes = List.map (fun st -> (st, classify_stmt t.env spec st)) spec.Ts.body in
  let passes = split_passes t.env classes in
  let run_iter pass ~grads iter =
    let locals = Hashtbl.create 4 in
    List.iter (fun n -> Hashtbl.replace locals n (Scalar 0.0)) spec.Ts.locals;
    List.iter
      (fun (st, cls) ->
        let execute =
          match cls with
          | Per_edge -> true
          | Per_pair_src -> t.ctx.Graph_ctx.rep_src.(iter.edge)
          | Per_pair_dst -> t.ctx.Graph_ctx.rep_dst.(iter.edge)
        in
        if execute then exec_stmt t iter locals ~program ~grads st)
      pass
  in
  List.iter
    (fun pass ->
      if
        (not (Dp.sequential ()))
        && pass_parallelizable t.env spec.Ts.locals spec.Ts.strategy pass
      then parallel_sweep t spec.Ts.strategy (run_iter pass)
      else sequential_sweep t spec.Ts.strategy (run_iter pass))
    passes;
  launch_attr t (traversal_kernel ~env:t.env ~ctx:t.ctx ~program ~layout spec)

(* ------------------------------------------------------------------ *)
(* fallback execution                                                  *)
(* ------------------------------------------------------------------ *)

let count_expr_nodes e =
  let n = ref 0 in
  Ir.iter_expr (fun _ -> incr n) e;
  !n

(* One kernel + full materialization per operator node of the fallback
   body (§3.1.1: each framework op is its own launch). *)
let fallback_kernels ~ctx (f : Plan.fallback) =
  let g = ctx.Graph_ctx.graph in
  let iters =
    match f.Plan.strategy with
    | Ts.Edge_parallel | Ts.Node_gather -> g.G.num_edges
    | Ts.Node_map -> g.G.num_nodes
  in
  let ops = List.fold_left (fun acc e -> acc + count_expr_nodes e) 0
      (List.concat_map Ir.stmt_exprs f.Plan.body)
  in
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

let run_fallback t ~program (f : Plan.fallback) =
  (* compute values exactly like a traversal... *)
  let run_iter ~grads iter =
    let locals = Hashtbl.create 1 in
    List.iter (exec_stmt t iter locals ~program ~grads) f.Plan.body
  in
  let classes = List.map (fun st -> (st, Per_edge)) f.Plan.body in
  if (not (Dp.sequential ())) && pass_parallelizable t.env [] f.Plan.strategy classes then
    parallel_sweep t f.Plan.strategy run_iter
  else sequential_sweep t f.Plan.strategy run_iter;
  List.iter (launch_attr t) (fallback_kernels ~ctx:t.ctx f)

(* ------------------------------------------------------------------ *)
(* GEMM execution                                                      *)
(* ------------------------------------------------------------------ *)

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

(* ranges of output rows per edge type, for a given edge space *)
let etype_ranges t space =
  let g = t.ctx.Graph_ctx.graph in
  let net = G.num_etypes g in
  match space with
  | Mat.Rows_edges -> List.init net (fun r -> (r, G.edges_of_type g r))
  | Mat.Rows_compact_src ->
      List.init net (fun r -> (r, Cm.pairs_of_etype t.ctx.Graph_ctx.compact_src r))
  | Mat.Rows_compact_dst ->
      List.init net (fun r -> (r, Cm.pairs_of_etype t.ctx.Graph_ctx.compact_dst r))
  | Mat.Rows_nodes -> fail "etype_ranges: node space"

let operand_entry t op = Env.find t.env (Gs.operand_name op)

(* The launch descriptor of a GEMM spec — the task decides the gather /
   scatter / atomic flags and where the [rows × k × n] shape comes from
   (weight-stack dims for forward and dinput tasks, operand dims for
   dweight tasks).  Shared by {!run_gemm} and the plan cost estimator. *)
let gemm_kernel ~env ~ctx (spec : Gs.t) =
  let g = ctx.Graph_ctx.graph in
  let schedule = spec.Gs.schedule in
  let weight_kn wstack transpose =
    let k = Tensor.dim wstack 1 and n = Tensor.dim wstack 2 in
    if transpose then (n, k) else (k, n)
  in
  match spec.Gs.task with
  | Gs.Node_linear { weight; transpose; accumulate; _ } ->
      let k, n = weight_kn (Env.weight env weight) transpose in
      gemm_cost ~name:(Gs.name spec) ~rows:g.G.num_nodes ~k ~n ~schedule ~gathered_in:false
        ~scatter_out:false ~atomic_out:false ~accumulate
  | Gs.Edge_linear { weight; out_space; transpose; _ } ->
      let k, n = weight_kn (Env.weight env weight) transpose in
      let rows = Graph_ctx.rows_of_space ctx out_space in
      gemm_cost ~name:(Gs.name spec) ~rows ~k ~n ~schedule ~gathered_in:true ~scatter_out:false
        ~atomic_out:false ~accumulate:false
  | Gs.Edge_linear_dinput { weight; grad_out_space; transpose; _ } ->
      let k, n = weight_kn (Env.weight env weight) transpose in
      let rows = Graph_ctx.rows_of_space ctx grad_out_space in
      let kern =
        gemm_cost ~name:(Gs.name spec) ~rows ~k ~n ~schedule ~gathered_in:false ~scatter_out:true
          ~atomic_out:true ~accumulate:true
      in
      (* the template pre-aggregates tile rows in shared memory before the
         atomic update, cutting atomic traffic *)
      { kern with Kernel.bytes_atomic = kern.Kernel.bytes_atomic /. 4.0 }
  | Gs.Edge_linear_dweight { input; grad_output; grad_out_space; _ } ->
      let x = Env.find env (Gs.operand_name input) in
      let dy = Env.find env grad_output in
      let rows = Graph_ctx.rows_of_space ctx grad_out_space in
      gemm_cost ~name:(Gs.name spec) ~rows ~k:x.Env.dim ~n:dy.Env.dim ~schedule ~gathered_in:true
        ~scatter_out:false ~atomic_out:false ~accumulate:true
  | Gs.Node_linear_dweight { input; grad_output; _ } ->
      let x = Env.find env (Gs.operand_name input) in
      let dy = Env.find env grad_output in
      gemm_cost ~name:(Gs.name spec) ~rows:g.G.num_nodes ~k:x.Env.dim ~n:dy.Env.dim ~schedule
        ~gathered_in:false ~scatter_out:false ~atomic_out:false ~accumulate:true

let run_gemm t (spec : Gs.t) =
  let g = t.ctx.Graph_ctx.graph in
  (match spec.Gs.task with
  | Gs.Node_linear { input; weight; slice; output; transpose; accumulate = acc } ->
      let x = (operand_entry t input).Env.tensor in
      let wstack = Env.weight t.env weight in
      let out = (Env.find t.env output).Env.tensor in
      let segments =
        match slice with
        | Ir.Shared -> [ (0, (0, g.G.num_nodes)) ]
        | Ir.By_ntype -> List.init (G.num_ntypes g) (fun nt -> (nt, G.nodes_of_type g nt))
        | _ -> fail "Node_linear: unsupported slice"
      in
      List.iter
        (fun (sl, (start, count)) ->
          if count > 0 then
            let xs = Tensor.sub_rows x start count in
            let os = Tensor.sub_rows out start count in
            Tensor.matmul_into ~trans_b:transpose
              ~beta:(if acc then 1.0 else 0.0)
              xs (Tensor.slice0 wstack sl) os)
        segments
  | Gs.Edge_linear { side; input; weight; output; out_space; transpose; per_row_scalar } ->
      let x = operand_entry t input in
      let wstack = Env.weight t.env weight in
      let out = Env.find t.env output in
      List.iter
        (fun (r, ((start, count) as range)) ->
          if count > 0 then begin
            let ids = Graph_ctx.endpoint_ids t.ctx out_space side range in
            let os = Tensor.sub_rows out.Env.tensor start count in
            (* gather applied on the fly inside the GEMM row loop (§4.2):
               no per-edge copy of the node features is ever materialized *)
            Tensor.matmul_gather_into ~trans_b:transpose x.Env.tensor ~idx:ids
              (Tensor.slice0 wstack r) os;
            match per_row_scalar with
            | None -> ()
            | Some sname ->
                let s = Env.find t.env sname in
                for i = 0 to count - 1 do
                  let factor = Tensor.get2 s.Env.tensor (start + i) 0 in
                  for j = 0 to out.Env.dim - 1 do
                    Tensor.set2 os i j (Tensor.get2 os i j *. factor)
                  done
                done
          end)
        (etype_ranges t out_space)
  | Gs.Edge_linear_dinput { side; weight; grad_output; grad_out_space; grad_input; transpose } ->
      let dy = Env.find t.env grad_output in
      let wstack = Env.weight t.env weight in
      let dx = Env.find t.env grad_input in
      List.iter
        (fun (r, ((start, count) as range)) ->
          if count > 0 then begin
            let ids = Graph_ctx.endpoint_ids t.ctx grad_out_space side range in
            let dys = Tensor.sub_rows dy.Env.tensor start count in
            (* scatter-add applied on the fly: the per-relation [count × dim]
               contribution matrix of the materialize-then-scatter scheme is
               never allocated *)
            Tensor.matmul_scatter_add_into ~trans_b:transpose dys (Tensor.slice0 wstack r)
              ~idx:ids dx.Env.tensor
          end)
        (etype_ranges t grad_out_space)
  | Gs.Edge_linear_dweight { side; input; grad_output; grad_out_space; grad_weight } ->
      let x = operand_entry t input in
      let dy = Env.find t.env grad_output in
      let dw = Env.weight_grad t.env grad_weight in
      List.iter
        (fun (r, ((start, count) as range)) ->
          if count > 0 then begin
            let ids = Graph_ctx.endpoint_ids t.ctx grad_out_space side range in
            let dys = Tensor.sub_rows dy.Env.tensor start count in
            (* transpose-aware gather: dW += X[idx]ᵀ dY without gathering X *)
            Tensor.matmul_gather_t_into ~beta:1.0 x.Env.tensor ~idx:ids dys
              (Tensor.slice0 dw r)
          end)
        (etype_ranges t grad_out_space)
  | Gs.Node_linear_dweight { input; slice; grad_output; grad_weight } ->
      let x = operand_entry t input in
      let dy = Env.find t.env grad_output in
      let dw = Env.weight_grad t.env grad_weight in
      let segments =
        match slice with
        | Ir.Shared -> [ (0, (0, g.G.num_nodes)) ]
        | _ -> List.init (G.num_ntypes g) (fun nt -> (nt, G.nodes_of_type g nt))
      in
      List.iter
        (fun (sl, (start, count)) ->
          if count > 0 then
            let xs = Tensor.sub_rows x.Env.tensor start count in
            let dys = Tensor.sub_rows dy.Env.tensor start count in
            Tensor.matmul_into ~trans_a:true ~beta:1.0 xs dys (Tensor.slice0 dw sl))
        segments);
  launch_attr t (gemm_kernel ~env:t.env ~ctx:t.ctx spec)

(* ------------------------------------------------------------------ *)
(* linear-fusion weight prologues                                      *)
(* ------------------------------------------------------------------ *)

(* Weight-prologue launch descriptor.  [Mat_mat] flops are expressed from
   the factor shapes ([slices × (dim l 1) × (dim r 2)] output, inner dim
   [dim r 1]) so the product stack need not be bound yet — the estimator
   prices plans it never runs. *)
let weight_op_kernel ~env op =
  let name =
    match op with Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> "weight_op_" ^ out
  in
  let flops =
    match op with
    | Lf.Mat_vec { mat; _ } ->
        let w = Env.weight env mat in
        2.0 *. float_of_int (Tensor.numel w)
    | Lf.Mat_mat { left; right; _ } ->
        let l = Env.weight env left and r = Env.weight env right in
        2.0
        *. float_of_int (Tensor.dim r 0 * Tensor.dim l 1 * Tensor.dim r 2)
        *. float_of_int (Tensor.dim r 1)
  in
  Kernel.make ~name ~category:Kernel.Gemm ~grid_blocks:64 ~flops
    ~bytes_coalesced:(flops /. 2.0) ~graph_proportional:false ()

let run_weight_op t op =
  let mg = t.ctx.Graph_ctx.graph.G.metagraph in
  (match op with
  | Lf.Mat_vec { mat; vec; half; out } ->
      let w = Env.weight t.env mat in
      let v = Env.weight t.env vec in
      let slices = Tensor.dim w 0 and k = Tensor.dim w 1 and n = Tensor.dim w 2 in
      let col = match half with `Left | `All -> 0 | `Right -> n in
      (* steady-state runs reuse the product's storage: every element is
         overwritten below, so a fresh zeroed tensor is only needed once *)
      let result =
        match Env.weight_opt t.env out with
        | Some r when Tensor.shape r = [| slices; k |] -> r
        | _ -> Tensor.zeros [| slices; k |]
      in
      Tensor.mat_vec_into w v ~col result;
      Env.add_weight t.env ~name:out result
  | Lf.Mat_mat { left; left_slice; right; out } ->
      let l = Env.weight t.env left and r = Env.weight t.env right in
      let slices = Tensor.dim r 0 in
      let k = Tensor.dim l 1 and n = Tensor.dim r 2 in
      (* reused across runs: matmul_into (beta = 0) overwrites every slice *)
      let result =
        match Env.weight_opt t.env out with
        | Some p when Tensor.shape p = [| slices; k; n |] -> p
        | _ -> Tensor.zeros [| slices; k; n |]
      in
      for s = 0 to slices - 1 do
        let nt =
          match left_slice with
          | Ir.By_src_ntype -> Mg.src_ntype mg s
          | Ir.By_dst_ntype -> Mg.dst_ntype mg s
          | Ir.By_ntype | Ir.By_etype -> s
          | Ir.Shared -> 0
        in
        let nt = min nt (Tensor.dim l 0 - 1) in
        Tensor.matmul_into (Tensor.slice0 l nt) (Tensor.slice0 r s) (Tensor.slice0 result s)
      done;
      Env.add_weight t.env ~name:out result);
  launch_attr t (weight_op_kernel ~env:t.env op)

(* ------------------------------------------------------------------ *)
(* buffers + plan driver                                               *)
(* ------------------------------------------------------------------ *)

let memset_kernel ~name ~rows ~dim =
  Kernel.make
    ~name:("memset_" ^ name)
    ~category:Kernel.Copy
    ~grid_blocks:(max 1 (rows * dim / 256 / 256))
    ~bytes_coalesced:(float_of_int (rows * dim * 4))
    ~provenance:(Kernel.provenance ~origin:"runtime.memset" name)
    ()

let launch_memset t name rows dim = Engine.launch t.engine (memset_kernel ~name ~rows ~dim)

(* [inlined] lists the zero-init buffers whose whole live range sits inside
   one fused step (Plan.inline_zeroed): their accumulator is initialized
   inside the fused kernel, so the zero fill still happens but no separate
   memset launch is charged. *)
let alloc_buffer ?(inlined = []) t (b : Plan.buffer) =
  let rows = Graph_ctx.rows_of_space t.ctx b.Plan.space in
  (match Env.find_opt t.env b.Plan.name with
  | Some entry ->
      (* persistent buffer from a previous epoch: re-zero accumulators *)
      if b.Plan.zero_init then Tensor.fill entry.Env.tensor 0.0
  | None ->
      let alloc = Engine.alloc_tensor t.engine ~label:b.Plan.name ~rows ~cols:b.Plan.dim () in
      Env.add t.env ~name:b.Plan.name
        {
          Env.tensor = Tensor.zeros [| rows; b.Plan.dim |];
          space = b.Plan.space;
          dim = b.Plan.dim;
          alloc = Some alloc;
        });
  if b.Plan.zero_init && not (List.mem b.Plan.name inlined) then
    launch_memset t b.Plan.name rows b.Plan.dim

let free_buffer t name =
  match Env.remove t.env name with
  | Some { Env.alloc = Some a; _ } -> Hector_gpu.Memory.free (Engine.memory t.engine) a
  | _ -> ()

let free_temp_buffers t (plan : Plan.t) =
  List.iter
    (fun (b : Plan.buffer) -> if b.Plan.temp then free_buffer t b.Plan.name)
    plan.Plan.buffers

(* One kernel standing for a whole fused group: the members' work summed,
   launched once.  Members were executed (and their launches captured)
   already, so numerics are exactly the unfused plan's — the merge only
   changes the launch accounting. *)
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

(* The launch sequence a step charges per steady-state run, built without
   executing anything: exactly the kernels [exec_step] hands to the engine
   (a fused step's members merged into one, as [exec_step] does after
   capture).  Requires every buffer the plan reads or writes bound in
   [env] (dims and spaces only — tensors are never touched) and weight
   stacks for every weight the specs reference. *)
let rec step_kernels ~env ~ctx ~(plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> [ weight_op_kernel ~env op ]
  | Plan.Gemm spec -> [ gemm_kernel ~env ~ctx spec ]
  | Plan.Traversal spec ->
      [ traversal_kernel ~env ~ctx ~program:plan.Plan.program ~layout:plan.Plan.layout spec ]
  | Plan.Fallback f -> fallback_kernels ~ctx f
  | Plan.Fused f -> (
      match List.concat_map (step_kernels ~env ~ctx ~plan) f.Plan.members with
      | [] -> []
      | ks -> [ merge_kernels (Plan.step_name step) ks ])

let rec exec_step t (plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> run_weight_op t op
  | Plan.Gemm spec -> run_gemm t spec
  | Plan.Traversal spec -> run_traversal t ~program:plan.Plan.program ~layout:plan.Plan.layout spec
  | Plan.Fallback f -> run_fallback t ~program:plan.Plan.program f
  | Plan.Fused f ->
      let captured = ref [] in
      let prev = t.capture in
      t.capture <- Some captured;
      Fun.protect
        ~finally:(fun () -> t.capture <- prev)
        (fun () -> List.iter (exec_step t plan) f.Plan.members);
      (match List.rev !captured with
      | [] -> ()
      | ks -> launch_attr t (merge_kernels (Plan.step_name step) ks))

let run_step ?(step_idx = -1) t (plan : Plan.t) step =
  t.cur_prov <-
    Some
      (Kernel.provenance ~step:step_idx ~origin:(Plan.step_origin step)
         ~fused:(Plan.step_constituents step) (Plan.step_op step));
  Fun.protect ~finally:(fun () -> t.cur_prov <- None) (fun () -> exec_step t plan step)

(* planner off: every plan buffer is allocated for the whole run — the
   reference point the planner's peak-memory saving is measured against *)
let run_plan_upfront ?on_step ~free_temps t (plan : Plan.t) =
  let inlined = Plan.inline_zeroed plan in
  List.iter (fun (b : Plan.buffer) -> alloc_buffer ~inlined t b) plan.Plan.buffers;
  List.iteri
    (fun i step ->
      run_step ~step_idx:i t plan step;
      match on_step with None -> () | Some f -> f i)
    plan.Plan.steps;
  if free_temps then free_temp_buffers t plan

(* --- plan-lifetime arena ---------------------------------------------

   The planner path replaces per-run allocate/free churn with an arena
   built once per (plan, free_temps mode) and reused by every subsequent
   [run_plan]: one device allocation per storage slot of the
   [Buffer_plan] coloring, sized for the largest buffer mapped to it.
   Steady-state runs bind [Tensor.view]s of the slot backings into the
   environment — no tensor allocation and no [Memory.alloc] on the hot
   path.

   Sharing is only sound when a buffer's value may die at its last use,
   i.e. when the caller lets temporaries be freed ([free_temps = true]).
   A training forward pass keeps every temporary alive for the backward
   program, so its arena degrades to identity coloring: one slot per
   buffer, same footprint the eager path had. *)

let create_arena t (plan : Plan.t) ~shared =
  let memory =
    match plan.Plan.memory with Some m -> m | None -> Bp.analyze plan
  in
  let nsteps = List.length plan.Plan.steps in
  let place_of = Hashtbl.create 16 in
  List.iter
    (fun (p : Plan.placement) -> Hashtbl.replace place_of p.Plan.var p)
    memory.Plan.placements;
  (* buffers already bound in the environment (inputs, persistent outputs
     of an earlier eager run, another plan's buffers) keep the eager
     allocate-or-rezero behaviour; the arena manages only the rest *)
  let members, aother =
    List.partition_map
      (fun (b : Plan.buffer) ->
        match (Env.find_opt t.env b.Plan.name, Hashtbl.find_opt place_of b.Plan.name) with
        | None, Some p -> Left (b, p)
        | _ -> Right b)
      plan.Plan.buffers
  in
  (* slot capacities: largest member mapped to each slot.  Identity slots
     (no sharing) get fresh negative ids so they can never collide. *)
  let slot_cap = Hashtbl.create 16 in
  let next_ident = ref 0 in
  let placed =
    List.map
      (fun ((b : Plan.buffer), (p : Plan.placement)) ->
        let rows = Graph_ctx.rows_of_space t.ctx b.Plan.space in
        let slot =
          if shared then p.Plan.slot
          else begin
            decr next_ident;
            !next_ident
          end
        in
        (match Hashtbl.find_opt slot_cap slot with
        | Some (r0, d0) when r0 * d0 >= rows * b.Plan.dim -> ()
        | _ -> Hashtbl.replace slot_cap slot (rows, b.Plan.dim));
        (b, p, rows, slot))
      members
  in
  let backings = Hashtbl.create 16 in
  Hashtbl.iter
    (fun slot (rows, dim) ->
      (* the backing is allocated once and lives as long as the executor —
         or, with a slab, as long as the slab: later executors bind prefix
         views of the cached backing instead of allocating.  Its contents
         are undefined until a member is bound. *)
      let fresh () =
        let alloc =
          Engine.alloc_tensor t.engine
            ~label:(Printf.sprintf "%s/arena_slot_%d" plan.Plan.name slot)
            ~rows ~cols:dim ()
        in
        let backing = Tensor.create_uninit [| rows * dim |] in
        (match t.slab with
        | Some slab ->
            Hashtbl.replace slab.sbackings (plan.Plan.name, slot)
              (Engine.memory t.engine, alloc, backing)
        | None -> ());
        backing
      in
      let backing =
        match t.slab with
        | None -> fresh ()
        | Some slab -> (
            match Hashtbl.find_opt slab.sbackings (plan.Plan.name, slot) with
            | Some (_, _, b) when Tensor.numel b >= rows * dim -> b
            | Some (mem, alloc, _) ->
                (* outgrown: drop the superseded charge before reallocating *)
                Memory.free mem alloc;
                fresh ()
            | None -> fresh ())
      in
      Hashtbl.replace backings slot backing)
    slot_cap;
  let abind = Array.make (max 1 nsteps) [] in
  let aunbind = Array.make (max 1 nsteps) [] in
  let apre = ref [] in
  List.iter
    (fun ((b : Plan.buffer), (p : Plan.placement), rows, slot) ->
      let m =
        {
          mbuf = b;
          mview = Tensor.view (Hashtbl.find backings slot) [| rows; b.Plan.dim |];
          muninit = p.Plan.uninit_ok;
          minitialized = false;
        }
      in
      if p.Plan.first < 0 || nsteps = 0 then apre := m :: !apre
      else begin
        abind.(p.Plan.first) <- m :: abind.(p.Plan.first);
        if shared && b.Plan.temp then
          aunbind.(p.Plan.last) <- b.Plan.name :: aunbind.(p.Plan.last)
      end)
    placed;
  { abind; aunbind; apre = !apre; aother }

let find_arena t (plan : Plan.t) ~shared =
  let rec lookup = function
    | [] -> None
    | (p, s, a) :: rest -> if p == plan && s = shared then Some a else lookup rest
  in
  match lookup t.arenas with
  | Some a -> a
  | None ->
      let a = create_arena t plan ~shared in
      t.arenas <- (plan, shared, a) :: t.arenas;
      a

(* Build (or adopt from the slab) the plan's arena without running it, so
   a server can take every slab allocation during warmup and keep the
   steady state allocation-free.  No-op when the planner is off. *)
let warm_plan ?(free_temps = true) t (plan : Plan.t) =
  if t.planner then ignore (find_arena t plan ~shared:free_temps)

(* Bind a managed buffer for this run, reproducing the zeroing semantics
   of the eager path: accumulators ([zero_init]) are cleared (and charged
   a memset launch) every run; other buffers start zeroed the first time
   they exist — which for a freed-and-recreated temporary is every run —
   unless the planner proved their defining step fully overwrites them. *)
let bind_managed ?(inlined = []) ~shared t (m : managed) =
  let b = m.mbuf in
  let needs_zero =
    if b.Plan.zero_init then true
    else if not m.minitialized then not m.muninit
    else shared && b.Plan.temp && not m.muninit
  in
  if needs_zero then Tensor.fill m.mview 0.0;
  m.minitialized <- true;
  Env.add t.env ~name:b.Plan.name
    { Env.tensor = m.mview; space = b.Plan.space; dim = b.Plan.dim; alloc = None };
  if b.Plan.zero_init && not (List.mem b.Plan.name inlined) then
    launch_memset t b.Plan.name (Tensor.dim m.mview 0) b.Plan.dim

let run_plan ?on_step ?(free_temps = true) t (plan : Plan.t) =
  Hector_obs.time (Engine.obs t.engine) ~kind:"run" ("run_plan:" ^ plan.Plan.name) @@ fun () ->
  if not t.planner then run_plan_upfront ?on_step ~free_temps t plan
  else begin
    let arena = find_arena t plan ~shared:free_temps in
    let inlined = Plan.inline_zeroed plan in
    List.iter (fun b -> alloc_buffer ~inlined t b) arena.aother;
    List.iter (bind_managed ~inlined ~shared:free_temps t) arena.apre;
    List.iteri
      (fun i step ->
        List.iter (bind_managed ~inlined ~shared:free_temps t) arena.abind.(i);
        run_step ~step_idx:i t plan step;
        (match on_step with None -> () | Some f -> f i);
        if free_temps then List.iter (fun n -> free_buffer t n) arena.aunbind.(i))
      plan.Plan.steps;
    if free_temps then free_temp_buffers t plan
  end
