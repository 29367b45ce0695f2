module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
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
module Dp = Hector_tensor.Domain_pool

type value = Scalar of float | Vector of float array

type opaque_fn = value list -> value

(* --- plan-lifetime arena (see run_plan below) ----------------------- *)

(* One plan buffer backed by a storage-slot view. *)
type managed = {
  mbuf : Plan.buffer;
  mslot : int;  (* its arena storage slot *)
  muninit : bool;  (* fully defined by its first-touching step: skip zeroing *)
  mutable mview : Tensor.t;  (* [rows × dim] view into the slot backing, cut per graph *)
  mutable minitialized : bool;  (* has the view ever been zero-filled/bound *)
}

(* A storage slot's backing, kept at its high-water capacity, and the
   device charge for it. *)
type backing = { alloc : Memory.allocation; data : Tensor.t }

type arena = {
  amembers : managed list;  (* every plan buffer, in plan order *)
  abind : managed list array;  (* step index -> buffers bound before the step *)
  aunbind : string list array;  (* step index -> temps unbound after the step *)
  apre : managed list;  (* buffers no step touches: bound at run start *)
  aslots : (int, backing) Hashtbl.t;
  mutable aschedule : Pricing.schedule Lazy.t;  (* forced by the first run on a graph, replayed after *)
}

(* [scratch] is the host scratch of recorded pair reductions (see
   [stage_pair_loop]): buffer [k] holds a pass's [k]th reduction, one row
   per compact pair, kept at its high-water size.  It lives in host memory
   only — the simulated device never sees it. *)
type t = {
  engine : Engine.t;
  mutable ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  mutable reuse : Row_reuse.block option;
  mutable scratch : float array array;
  mutable arenas : (Plan.t * bool * arena) list;
}

let create ?(opaque = []) ~engine ~ctx ~env () =
  { engine; ctx; env; opaque; reuse = None; scratch = [||]; arenas = [] }

let value_dim = function Scalar _ -> 1 | Vector v -> Array.length v

let fail fmt = Format.kasprintf invalid_arg fmt

let leaky_slope = 0.01

(* ------------------------------------------------------------------ *)
(* staged statement bodies                                             *)
(* ------------------------------------------------------------------ *)

(* Every step run stages its body afresh, after the arena has bound its
   buffers: entries, weight stacks and index columns are resolved to flat
   arrays once, and float operations keep the scalar definition's order
   and form, so results are bit-identical to a per-edge value interpreter
   (DESIGN.md, "Staged traversals").  Three habits keep an iteration near
   loop speed:
   - a statement whose right-hand side is a [Binop] or [Unop] writes each
     element straight into its target row or local slot, with no result
     buffer in between;
   - a row or weight read is one closure over its index column ([src],
     [dst], [etype], [node_type], a compact [row_of_edge], or the id
     itself) that moves an offset into tensor storage;
   - a reduction the record hoists into a pair loop is evaluated once per
     pair before the sweep; the sweep reads the pair's value from host
     scratch. *)

(* An instantiated sub-expression: after [run edge node] its value is the
   [dim] floats of [arr] from [off].  Computed nodes own [arr]; row and
   weight reads point it at tensor storage instead of copying. *)
type node = { arr : float array; mutable off : int; run : int -> int -> unit }

(* Where an access finds its row or weight slice, resolved at staging:
   the iteration's edge or node id itself, or one column lookup. *)
type index =
  | Edge_id
  | Node_id
  | Of_edge of int array  (* [col.(edge)]: src, dst, etype, row_of_edge *)
  | Of_node of int array  (* [col.(node)]: node_type *)
  | Of_end of int array * int array  (* [col.(ends.(edge))]: an endpoint's type *)
  | Fixed of int

let[@inline] index_at idx e v =
  match idx with
  | Edge_id -> e
  | Node_id -> v
  | Of_edge c -> c.(e)
  | Of_node c -> c.(v)
  | Of_end (c, ends) -> c.(ends.(e))
  | Fixed k -> k

(* How a statement stores element [i]: into a register-local slot as is,
   by a plain write ([0.0 +. v], which turns [-0.0] into [+0.0]), or by
   accumulation ([data + v]). *)
type store = Set | Assign | Add

let[@inline] store mode (dst : float array) i v =
  match mode with
  | Set -> dst.(i) <- v
  | Assign -> dst.(i) <- 0.0 +. v
  | Add -> dst.(i) <- dst.(i) +. v

(* A staged sub-expression: its shape ([scalar] tells a [Scalar] from a
   one-element [Vector]; they broadcast differently), how to instantiate
   it as a node, and how to instantiate a statement storing it:
   [into mode inst dst base stride idx] is the iteration that stores the
   value at [base + index_at idx e v * stride] of [dst].  Instances own
   scratch buffers, so each concurrent sweep chunk makes its own. *)
type staged = {
  dim : int;
  scalar : bool;
  make : inst -> node;
  into : store -> inst -> float array -> int -> int -> index -> int -> int -> unit;
}

(* Per-instance state: one buffer per register-local definition. *)
and inst = { slots : float array array }

let nop _ _ = ()

let copy_into mode (src : float array) so dst o n =
  for j = 0 to n - 1 do
    store mode dst (o + j) src.(so + j)
  done

(* A value held in a node, stored by copying it out. *)
let held dim scalar make =
  let into mode inst dst base stride idx =
    let x = make inst in
    fun e v ->
      x.run e v;
      copy_into mode x.arr x.off dst (base + (index_at idx e v * stride)) dim
  in
  { dim; scalar; make; into }

let computed dim scalar body =
  held dim scalar (fun inst -> let out = Array.make dim 0.0 in { arr = out; off = 0; run = body inst out })

(* A pointwise value, defined by how it stores itself: a node computes
   it into its own buffer, a statement straight into its target. *)
let pointwise dim scalar into =
  let make inst =
    let out = Array.make dim 0.0 in
    { arr = out; off = 0; run = into Set inst out 0 0 (Fixed 0) }
  in
  { dim; scalar; make; into }

(* A read of the [dim] floats at row [idx] of [data]: one closure. *)
let view dim scalar data base stride idx =
  let make _ =
    match idx with
    | Edge_id -> let rec n = { arr = data; off = base; run = (fun e _ -> n.off <- base + (e * stride)) } in n
    | Node_id -> let rec n = { arr = data; off = base; run = (fun _ v -> n.off <- base + (v * stride)) } in n
    | Of_edge c -> let rec n = { arr = data; off = base; run = (fun e _ -> n.off <- base + (c.(e) * stride)) } in n
    | Of_node c -> let rec n = { arr = data; off = base; run = (fun _ v -> n.off <- base + (c.(v) * stride)) } in n
    | Of_end (c, ends) ->
        let rec n = { arr = data; off = base; run = (fun e _ -> n.off <- base + (c.(ends.(e)) * stride)) } in
        n
    | Fixed k -> { arr = data; off = base + (k * stride); run = nop }
  in
  held dim scalar make

let const c = held 1 true (fun _ -> { arr = [| c |]; off = 0; run = nop })

let blit (src : float array) so (dst : float array) d n =
  for j = 0 to n - 1 do
    dst.(d + j) <- src.(so + j)
  done

(* The row an access through [ent] resolves to, in a buffer of [space]. *)
let row_index ctx ent space =
  let g = Graph_ctx.graph ctx in
  match ent with
  | Ir.Cur_node -> Node_id
  | Ir.Src -> Of_edge g.G.src
  | Ir.Dst -> Of_edge g.G.dst
  | Ir.Cur_edge -> (
      match (space, Graph_ctx.compact_of_space ctx space) with
      | _, Some cm -> Of_edge cm.Cm.row_of_edge
      | Mat.Rows_edges, None -> Edge_id
      | _ -> invalid_arg "Graph_ctx.row_of_edge: node-space tensor")

(* The weight-stack slice an iteration uses. *)
let slice_index ctx slice =
  let g = Graph_ctx.graph ctx in
  match slice with
  | Ir.By_etype -> Of_edge g.G.etype
  | Ir.By_ntype -> Of_node g.G.node_type
  | Ir.By_src_ntype -> Of_end (g.G.node_type, g.G.src)
  | Ir.By_dst_ntype -> Of_end (g.G.node_type, g.G.dst)
  | Ir.Shared -> Fixed 0

(* [store mode dst (o + j) (a.(ao + j*sa) op b.(bo + j*sb))]; a zero
   stride broadcasts a scalar.  One loop per operator: no per-element
   dispatch beyond the store mode. *)
let binop_into op mode =
  match op with
  | Ir.Add ->
      fun a ao sa b bo sb dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (a.(ao + (j * sa)) +. b.(bo + (j * sb))) done
  | Ir.Sub ->
      fun a ao sa b bo sb dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (a.(ao + (j * sa)) -. b.(bo + (j * sb))) done
  | Ir.Mul ->
      fun a ao sa b bo sb dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (a.(ao + (j * sa)) *. b.(bo + (j * sb))) done
  | Ir.Div ->
      fun a ao sa b bo sb dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (a.(ao + (j * sa)) /. b.(bo + (j * sb))) done

let unop_into op mode =
  match op with
  | Ir.Exp -> fun a ao dst o n -> for j = 0 to n - 1 do store mode dst (o + j) (Stdlib.exp a.(ao + j)) done
  | Ir.Neg -> fun a ao dst o n -> for j = 0 to n - 1 do store mode dst (o + j) (-.a.(ao + j)) done
  | Ir.Reciprocal -> fun a ao dst o n -> for j = 0 to n - 1 do store mode dst (o + j) (1.0 /. a.(ao + j)) done
  | Ir.Leaky_relu ->
      fun a ao dst o n ->
        for j = 0 to n - 1 do
          store mode dst (o + j) (let x = a.(ao + j) in if x > 0.0 then x else leaky_slope *. x)
        done
  | Ir.Relu ->
      fun a ao dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (let x = a.(ao + j) in if x > 0.0 then x else 0.0) done
  | Ir.Rsqrt -> fun a ao dst o n -> for j = 0 to n - 1 do store mode dst (o + j) (1.0 /. sqrt a.(ao + j)) done
  | Ir.Leaky_relu_grad ->
      fun a ao dst o n ->
        for j = 0 to n - 1 do store mode dst (o + j) (if a.(ao + j) > 0.0 then 1.0 else leaky_slope) done
  | Ir.Relu_grad ->
      fun a ao dst o n -> for j = 0 to n - 1 do store mode dst (o + j) (if a.(ao + j) > 0.0 then 1.0 else 0.0) done

(* [locals] maps each register local to its current definition; [hoist]
   maps each hoisted pair reduction to its scratch read. *)
let rec stage_expr t ~hoist locals e =
  let stage = stage_expr t ~hoist locals in
  match e with
  | Ir.Const c -> const c
  | (Ir.Feature (Ir.Cur_edge, n) | Ir.Data (Ir.Cur_edge, n)) when Hashtbl.mem locals n -> Hashtbl.find locals n
  | Ir.Feature (ent, n) | Ir.Data (ent, n) ->
      let entry = Env.find t.env n in
      let data, base = Tensor.storage entry.Env.tensor and stride = Tensor.dim entry.Env.tensor 1 in
      let scalar = entry.Env.dim = 1 in
      view (if scalar then 1 else stride) scalar data base stride (row_index t.ctx ent entry.Env.space)
  | Ir.Weight (n, slice) ->
      let stack = Env.weight t.env n in
      let data, base = Tensor.storage stack in
      let size = Tensor.numel stack / max 1 (Tensor.dim stack 0) in
      view size (Tensor.ndim stack = 2 && size = 1) data base size (slice_index t.ctx slice)
  | (Ir.Inner _ | Ir.Linear _ | Ir.Linear_t _) when List.mem_assoc e hoist -> List.assoc e hoist
  | Ir.Linear (x, Ir.Weight (w, slice)) | Ir.Linear_t (x, Ir.Weight (w, slice)) ->
      let x = stage x and stack = Env.weight t.env w in
      let k = Tensor.dim stack 1 and n = Tensor.dim stack 2 in
      let transposed = match e with Ir.Linear_t _ -> true | _ -> false in
      if transposed && x.dim <> n then fail "linear_t: input %d vs weight cols %d" x.dim n;
      if (not transposed) && x.dim <> k then fail "linear: input %d vs weight rows %d" x.dim k;
      let wa, base = Tensor.storage stack and wi = slice_index t.ctx slice in
      let dim = if transposed then k else n in
      computed dim (dim = 1) (fun inst out ->
          let x = x.make inst in
          fun e v ->
            x.run e v;
            let xa = x.arr and xo = x.off and w0 = base + (index_at wi e v * k * n) in
            if transposed then
              for i = 0 to k - 1 do
                let acc = ref 0.0 in
                for j = 0 to n - 1 do
                  acc := !acc +. (wa.(w0 + (i * n) + j) *. xa.(xo + j))
                done;
                out.(i) <- !acc
              done
            else begin
              Array.fill out 0 n 0.0;
              for i = 0 to k - 1 do
                let xi = xa.(xo + i) in
                if xi <> 0.0 then
                  for j = 0 to n - 1 do
                    out.(j) <- out.(j) +. (xi *. wa.(w0 + (i * n) + j))
                  done
              done
            end)
  | Ir.Linear _ | Ir.Linear_t _ -> fail "linear against non-weight operand"
  | Ir.Inner (a, b) ->
      let a = stage a and b = stage b in
      if a.dim <> b.dim then fail "inner: %d vs %d" a.dim b.dim;
      let d = a.dim in
      computed 1 true (fun inst out ->
          let a = a.make inst and b = b.make inst in
          fun e v ->
            a.run e v;
            b.run e v;
            let aa = a.arr and ao = a.off and ba = b.arr and bo = b.off and acc = ref 0.0 in
            for i = 0 to d - 1 do
              acc := !acc +. (aa.(ao + i) *. ba.(bo + i))
            done;
            out.(0) <- !acc)
  | Ir.Concat (a, b) ->
      let a = stage a and b = stage b in
      let da = a.dim and db = b.dim in
      computed (da + db) false (fun inst out ->
          let a = a.make inst and b = b.make inst in
          fun e v ->
            a.run e v;
            b.run e v;
            blit a.arr a.off out 0 da;
            blit b.arr b.off out da db)
  | Ir.Slice (a, lo, len) ->
      let a = stage a in
      if lo + len > a.dim then fail "slice out of range";
      held len (len = 1) (fun inst ->
          let a = a.make inst in
          let rec n = { arr = a.arr; off = 0; run = (fun e v -> a.run e v; n.off <- a.off + lo) } in
          n)
  | Ir.Binop (op, a, b) ->
      let a = stage a and b = stage b in
      if (not a.scalar) && (not b.scalar) && a.dim <> b.dim then
        fail "vector op dimension mismatch %d vs %d" a.dim b.dim;
      let dim = if a.scalar then b.dim else a.dim in
      let sa = if a.scalar then 0 else 1 and sb = if b.scalar then 0 else 1 in
      pointwise dim (a.scalar && b.scalar) (fun mode inst dst base stride idx ->
          let a = a.make inst and b = b.make inst in
          if dim > 1 && ((sa = 0 && a.arr == dst) || (sb = 0 && b.arr == dst)) then begin
            (* a scalar broadcast out of the target's own storage could
               read an element this loop already wrote: compute first *)
            let f = binop_into op Set and tmp = Array.make dim 0.0 in
            fun e v ->
              a.run e v;
              b.run e v;
              f a.arr a.off sa b.arr b.off sb tmp 0 dim;
              copy_into mode tmp 0 dst (base + (index_at idx e v * stride)) dim
          end
          else
            let f = binop_into op mode in
            fun e v ->
              a.run e v;
              b.run e v;
              f a.arr a.off sa b.arr b.off sb dst (base + (index_at idx e v * stride)) dim)
  | Ir.Unop (op, a) ->
      let a = stage a in
      let d = a.dim in
      pointwise d a.scalar (fun mode inst dst base stride idx ->
          let a = a.make inst and f = unop_into op mode in
          fun e v ->
            a.run e v;
            f a.arr a.off dst (base + (index_at idx e v * stride)) d)
  | Ir.Opaque (name, args) ->
      (* the one node that still builds [value]s; its result takes the
         shape of its first argument (a scalar without arguments) *)
      let f =
        try List.assoc name t.opaque
        with Not_found -> fail "no fallback implementation registered for %S" name
      in
      let args = List.map stage args in
      let dim, scalar = match args with [] -> (1, true) | a :: _ -> (a.dim, a.scalar) in
      computed dim scalar (fun inst out ->
          let args = List.map (fun a -> (a, a.make inst)) args in
          fun e v ->
            let value (a, n) =
              n.run e v;
              if a.scalar then Scalar n.arr.(n.off) else Vector (Array.sub n.arr n.off a.dim)
            in
            match f (List.map value args) with
            | Scalar s when dim = 1 -> out.(0) <- s
            | Vector r when Array.length r = dim -> blit r 0 out 0 dim
            | r -> fail "opaque %S returned dim %d, expected %d" name (value_dim r) dim)

let stage_write t (entry : Env.entry) ent mode (x : staged) =
  let d = entry.Env.dim in
  if x.dim <> d then fail "write of dim %d into buffer of dim %d" x.dim d;
  let data, base = Tensor.storage entry.Env.tensor and stride = Tensor.dim entry.Env.tensor 1 in
  let idx = row_index t.ctx ent entry.Env.space in
  fun inst -> x.into mode inst data base stride idx

(* Weight-gradient accumulation: matrices get dW[idx] += x ⊗ dy, vectors
   dv[idx] += x * dy, straight into the environment's gradient stack.  The
   stack is resolved (created on first use) here, at staging on the
   calling domain: no parallel region ever creates one. *)
let stage_grad_weight t ~program ~hoist locals name x dy =
  let slice =
    match Ir.find_decl program name with
    | Some (Ir.Weight_mat { slice; _ }) | Some (Ir.Weight_vec { slice; _ }) -> slice
    | _ -> fail "Grad_weight: %S is not a declared weight" name
  in
  let x = stage_expr t ~hoist locals x and dy = stage_expr t ~hoist locals dy in
  let rows, cols, outer =
    match Tensor.shape (Env.weight t.env name) with
    | [| _; k; n |] ->
        if x.dim <> k || dy.dim <> n then
          fail "Grad_weight %S: outer(%d, %d) vs %dx%d" name x.dim dy.dim k n;
        (k, n, true)
    | [| _; k |] ->
        if dy.dim <> 1 then fail "expected scalar, got vec<%d>" dy.dim;
        if x.dim <> k then fail "Grad_weight %S: %d vs %d" name x.dim k;
        (k, 1, false)
    | _ -> fail "Grad_weight %S: unsupported gradient rank" name
  in
  let wi = slice_index t.ctx slice and g, base = Tensor.storage (Env.weight_grad t.env name) in
  fun inst ->
    let x = x.make inst and dy = dy.make inst in
    fun e v ->
      x.run e v;
      dy.run e v;
      let g0 = base + (index_at wi e v * rows * cols) and xa = x.arr and xo = x.off in
      let da = dy.arr and d0 = dy.off in
      if outer then
        for i = 0 to rows - 1 do
          let xi = xa.(xo + i) in
          if xi <> 0.0 then
            for j = 0 to cols - 1 do
              let gi = g0 + (i * cols) + j in
              g.(gi) <- g.(gi) +. (xi *. da.(d0 + j))
            done
        done
      else
        let s = da.(d0) in
        for i = 0 to rows - 1 do
          g.(g0 + i) <- g.(g0 + i) +. (xa.(xo + i) *. s)
        done

(* Stage one statement.  A write to a register local (a [Cur_edge] name
   already defined, or unbound in the environment) makes a new definition
   with its own slot buffer, which later reads in the pass resolve to. *)
let stage_stmt t ~program ~hoist locals slot st =
  match st with
  | Ir.Assign (ent, n, e) -> (
      let x = stage_expr t ~hoist locals e in
      if ent = Ir.Cur_edge && (Hashtbl.mem locals n || Env.find_opt t.env n = None) then begin
        let k = !slot and d = x.dim in
        incr slot;
        Hashtbl.replace locals n (held d x.scalar (fun inst -> { arr = inst.slots.(k); off = 0; run = nop }));
        fun inst ->
          let buf = Array.make d 0.0 in
          inst.slots.(k) <- buf;
          x.into Set inst buf 0 0 (Fixed 0)
      end
      else
        match Env.find_opt t.env n with
        | Some entry -> stage_write t entry ent Assign x
        | None -> fail "write to unknown buffer %S" n)
  | Ir.Accumulate (ent, n, e) -> stage_write t (Env.find t.env n) ent Add (stage_expr t ~hoist locals e)
  | Ir.Grad_weight { name; x; dy } -> stage_grad_weight t ~program ~hoist locals name x dy
  | Ir.For_each _ -> fail "nested loop inside traversal body"

(* --- pair loops ------------------------------------------------------ *)

(* Pairs per chunk of a parallel pair loop. *)
let pair_grain = 256

(* The executor's host scratch buffer [k], at least [size] floats. *)
let scratch t k size =
  if Array.length t.scratch <= k then
    t.scratch <- Array.init (k + 1) (fun i -> if i < Array.length t.scratch then t.scratch.(i) else [||]);
  if Array.length t.scratch.(k) < size then t.scratch.(k) <- Array.make size 0.0;
  t.scratch.(k)

(* Staged statements instantiated: one closure over an iteration's
   (edge, node). *)
let instantiate nslots stmts =
  let inst = { slots = Array.make nslots [||] } in
  let stmts = Array.of_list (List.map (fun s -> s inst) stmts) in
  fun e v ->
    for i = 0 to Array.length stmts - 1 do
      stmts.(i) e v
    done

(* Stage one recorded pair loop: a runner visiting every pair at its
   representative edge, and the sweep's reads of its reductions (item [i]
   into scratch buffer [!next + i], read through [row_of_edge]).  Reductions
   alone run in parallel over pairs; statements, in pair order here. *)
let stage_pair_loop t ~program next (l : Ts.pair_loop) =
  let k0 = !next in
  next := k0 + List.length l.Ts.items;
  let cm, reps =
    match l.Ts.side with
    | `Src -> (Graph_ctx.compact_src t.ctx, Graph_ctx.pair_rep_src t.ctx)
    | `Dst -> (Graph_ctx.compact_dst t.ctx, Graph_ctx.pair_rep_dst t.ctx)
  in
  let pairs = cm.Cm.num_pairs and rows = Of_edge cm.Cm.row_of_edge and slot = ref 0 in
  let staged =
    List.mapi
      (fun i -> function
        | Ts.Pair_reduction e ->
            let x = stage_expr t ~hoist:[] (Hashtbl.create 1) e in
            let buf = scratch t (k0 + i) (pairs * x.dim) in
            ((fun inst -> x.into Set inst buf 0 x.dim rows), [ (e, view x.dim x.scalar buf 0 x.dim rows) ])
        | Ts.Pair_stmt st -> (stage_stmt t ~program ~hoist:[] (Hashtbl.create 1) slot st, []))
      l.Ts.items
  in
  let stmts = List.map fst staged and nslots = !slot in
  let visit lo hi =
    let f = instantiate nslots stmts in
    for p = lo to hi - 1 do
      f reps.(p) (-1)
    done
  in
  let run () =
    if List.for_all (function Ts.Pair_reduction _ -> true | Ts.Pair_stmt _ -> false) l.Ts.items then
      Dp.parallel_for ~grain:pair_grain pairs visit
    else visit 0 pairs
  in
  (run, List.concat_map snd staged)

(* Stage one recorded pass: its pair loops, its sweep's register-slot
   count, and each swept statement with its staging.  Locals start every
   iteration as [Scalar 0.0]. *)
let stage_pass t ~program ~locals (pass : Ts.pass) =
  let loops, hoist = List.split (List.map (stage_pair_loop t ~program (ref 0)) pass.Ts.pair_loops) in
  let defs = Hashtbl.create 8 and slot = ref 0 in
  List.iter (fun n -> Hashtbl.replace defs n (const 0.0)) locals;
  let stmts =
    List.map (fun st -> (st, stage_stmt t ~program ~hoist:(List.concat hoist) defs slot st)) pass.Ts.sweep
  in
  (loops, !slot, stmts)

(* ------------------------------------------------------------------ *)
(* multicore traversal sweeps                                          *)
(* ------------------------------------------------------------------ *)

(* The parallel backend re-expresses an edge loop as a node × incident-
   edge loop over the incoming-CSR view (the paper's edge-loop ⇔
   node×edge transform) and partitions the {e destination nodes} across
   domains: every output row a statement may touch is then owned by
   exactly one domain, so accumulations need no synchronisation — the CPU
   analogue of Hector's warp-level pre-reduction before atomics.  Because
   the CSR stores each destination's edges in ascending edge id, every
   row accumulates in the sequential edge loop's order.

   Weight-gradient rows are shared across destinations, so the chunks
   skip a pass's [Grad_weight] statements; those run afterwards, in the
   sweep's own order, each weight slice owned by one domain (see
   [grad_ranges]).  The record marks a pass safe only when its gradient
   statements may move behind the others, so every domain count adds the
   same terms in the same order. *)

(* How many destination nodes one chunk takes; small because a staged
   iteration still costs far more than the chunk bookkeeping (and each
   chunk instantiates its own copy of the staged body). *)
let node_grain = 32

(* Iterations of destination nodes [lo, hi): each node's incoming edges
   in CSR order ([node] is -1 for an edge-parallel body), or the nodes
   themselves for [Node_map].  The CSR is resolved here, on the calling
   domain, before any parallel region sweeps with the result. *)
let sweep_nodes t strategy =
  match strategy with
  | Ts.Node_map ->
      fun run lo hi ->
        for v = lo to hi - 1 do
          run (-1) v
        done
  | Ts.Edge_parallel | Ts.Node_gather ->
      let csr = Graph_ctx.in_csr t.ctx and gather = strategy = Ts.Node_gather in
      fun run lo hi ->
        for v = lo to hi - 1 do
          for k = csr.Csr.row_ptr.(v) to csr.Csr.row_ptr.(v + 1) - 1 do
            run csr.Csr.eid.(k) (if gather then v else -1)
          done
        done

(* The sweep's own order over [lo, hi) of its outer index, and that
   index's extent: edges for an edge-parallel body, nodes otherwise. *)
let sweep_order t strategy =
  let g = Graph_ctx.graph t.ctx in
  match strategy with
  | Ts.Edge_parallel -> ((fun run lo hi -> for e = lo to hi - 1 do run e (-1) done), g.G.num_edges)
  | Ts.Node_gather | Ts.Node_map -> (sweep_nodes t strategy, g.G.num_nodes)

(* The outer-index ranges a gradient loop runs, one domain each: the
   weight slices' own ranges when every statement's slice column is
   sorted along the sweep's order ([By_etype] over edges, [By_ntype] over
   nodes: both are grouped by type), else the whole extent. *)
let grad_ranges t ~program strategy extent stmts =
  let slice, space =
    match strategy with
    | Ts.Edge_parallel -> (Ir.By_etype, Mat.Rows_edges)
    | Ts.Node_gather | Ts.Node_map -> (Ir.By_ntype, Mat.Rows_nodes)
  in
  let along = function
    | Ir.Grad_weight { name; _ }, _ -> (
        match Ir.find_decl program name with
        | Some (Ir.Weight_mat { slice = s; _ } | Ir.Weight_vec { slice = s; _ }) -> s = slice
        | _ -> false)
    | _ -> false
  in
  if List.for_all along stmts then Graph_ctx.offsets t.ctx space else [| 0; extent |]

(* Stage every recorded pass at step entry (shape errors surface before
   any buffer is touched), then run them in order: each pass's pair
   loops, then its sweep — split as above when the record marks it safe
   and the pool has more than one domain, else one loop. *)
let run_passes t ~program ~name ~locals strategy body (passes : Ts.pass list) =
  if passes = [] && body <> [] then fail "%s: no recorded passes (see Traversal_passes.record)" name;
  let chunked = not (Dp.sequential ()) in
  List.map (fun (p : Ts.pass) -> (p, stage_pass t ~program ~locals p)) passes
  |> List.iter (fun ((p : Ts.pass), (loops, nslots, stmts)) ->
         List.iter (fun run -> run ()) loops;
         let make stmts = instantiate nslots (List.map snd stmts) and order, extent = sweep_order t strategy in
         if chunked && p.Ts.parallel_safe then begin
           let grads, rest = List.partition (function Ir.Grad_weight _, _ -> true | _ -> false) stmts in
           if rest <> [] then begin
             let sweep = sweep_nodes t strategy in
             Dp.parallel_for ~grain:node_grain (Graph_ctx.graph t.ctx).G.num_nodes (fun lo hi ->
                 sweep (make rest) lo hi)
           end;
           if grads <> [] then begin
             let off = grad_ranges t ~program strategy extent grads in
             Dp.parallel_for ~grain:1 (Array.length off - 1) (fun lo hi -> order (make grads) off.(lo) off.(hi))
           end
         end
         else if stmts <> [] then order (make stmts) 0 extent)

(* ------------------------------------------------------------------ *)
(* GEMM execution                                                      *)
(* ------------------------------------------------------------------ *)

let operand_entry t op = Env.find t.env (Gs.operand_name op)

(* The executor's row table when it serves this forward product: the
   block's own feature input times a declared parameter, untransposed. *)
let reused t input ~weight ~transpose =
  match (t.reuse, input) with
  | Some b, Gs.Op_feature name
    when (not transpose) && String.equal name b.Row_reuse.feature && Row_reuse.caches b ~weight ->
      Some b
  | _ -> None

(* Each GEMM step is one segmented kernel call over the context's type
   offsets: one parallel region for every relation.  The forward gather
   into edge rows computes each (relation, endpoint) pair's first edge
   only and copies that row to the pair's other edges.  The backward
   steps of an edge-row gradient first sum its rows into the side's
   (relation, endpoint) pairs, so they run the compact layout's GEMM on
   the compact layout's rows.  The launch charged below still covers
   every edge row: the device model prices the U layout's kernel, and
   only the host stops repeating multiply-adds.  An executor with a row
   table ([reuse]) takes an inference product of its feature input from
   the table instead (see {!Row_reuse.project}): same bits, same charge. *)
let run_gemm t (spec : Gs.t) =
  let node_offsets = function
    | Ir.Shared -> [| 0; (Graph_ctx.graph t.ctx).G.num_nodes |]
    | Ir.By_ntype -> Graph_ctx.offsets t.ctx Mat.Rows_nodes
    | _ -> fail "node GEMM: unsupported slice"
  in
  (* A backward GEMM over a gradient in [space]: its pair map (edge rows
     only), segment offsets and gathered/scattered node ids. *)
  let grad_rows space side =
    match space with
    | Mat.Rows_edges ->
        let cm =
          match side with `Src -> Graph_ctx.compact_src t.ctx | `Dst -> Graph_ctx.compact_dst t.ctx
        in
        (Some cm.Cm.row_of_edge, cm.Cm.etype_ptr, cm.Cm.pair_src)
    | _ -> (None, Graph_ctx.offsets t.ctx space, Graph_ctx.endpoint_ids t.ctx space side)
  in
  match spec.Gs.task with
  | Gs.Node_linear { input; weight; slice; output; transpose; accumulate = acc } ->
      let x = (operand_entry t input).Env.tensor and out = (Env.find t.env output).Env.tensor in
      let offsets = node_offsets slice and w = Env.weight t.env weight in
      (match reused t input ~weight ~transpose with
      | Some b when not acc ->
          Row_reuse.project b ~weight ~edge:false ~offsets ~idx:[||] ~rep:[||] x w out
      | _ ->
          Tensor.segment_matmul_into ~trans_b:transpose
            ~beta:(if acc then 1.0 else 0.0)
            ~offsets x w out)
  | Gs.Edge_linear { side; input; weight; output; out_space; transpose; per_row_scalar } ->
      let rep =
        match (out_space, side) with
        | Mat.Rows_edges, `Src -> Graph_ctx.rep_src t.ctx
        | Mat.Rows_edges, `Dst -> Graph_ctx.rep_dst t.ctx
        | _ -> [||] (* compact rows are unique pairs *)
      in
      let offsets = Graph_ctx.offsets t.ctx out_space
      and x = (operand_entry t input).Env.tensor
      and idx = Graph_ctx.endpoint_ids t.ctx out_space side
      and w = Env.weight t.env weight
      and out = (Env.find t.env output).Env.tensor in
      (match (per_row_scalar, reused t input ~weight ~transpose) with
      | None, Some b -> Row_reuse.project b ~weight ~edge:true ~offsets ~idx ~rep x w out
      | _ ->
          (* gather applied on the fly inside the GEMM row loop (§4.2): no
             per-edge copy of the node features is ever materialized *)
          Tensor.segment_gather_into ~trans_b:transpose ~rep
            ?scale:(Option.map (fun s -> (Env.find t.env s).Env.tensor) per_row_scalar)
            ~offsets x ~idx w out)
  | Gs.Edge_linear_dinput { side; weight; grad_output; grad_out_space; grad_input; transpose } ->
      (* scatter-add applied on the fly: the [rows × dim] contribution
         matrix of the materialize-then-scatter scheme is never allocated *)
      let pairs, offsets, idx = grad_rows grad_out_space side in
      Tensor.segment_scatter_add_into ~trans_b:transpose ?pairs ~offsets
        (Env.find t.env grad_output).Env.tensor (Env.weight t.env weight) ~idx
        (Env.find t.env grad_input).Env.tensor
  | Gs.Edge_linear_dweight { side; input; grad_output; grad_out_space; grad_weight } ->
      (* transpose-aware gather: dW += X[idx]ᵀ dY without gathering X *)
      let pairs, offsets, idx = grad_rows grad_out_space side in
      Tensor.segment_gather_t_into ~beta:1.0 ?pairs ~offsets (operand_entry t input).Env.tensor
        ~idx (Env.find t.env grad_output).Env.tensor (Env.weight_grad t.env grad_weight)
  | Gs.Node_linear_dweight { input; slice; grad_output; grad_weight } ->
      Tensor.segment_matmul_into ~trans_a:true ~beta:1.0 ~offsets:(node_offsets slice)
        (operand_entry t input).Env.tensor (Env.find t.env grad_output).Env.tensor
        (Env.weight_grad t.env grad_weight)

(* ------------------------------------------------------------------ *)
(* linear-fusion weight prologues                                      *)
(* ------------------------------------------------------------------ *)

let run_weight_op t ~program op =
  let out = match op with Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out in
  let shape = Graph_ctx.weight_shape t.ctx program out in
  (* steady-state runs reuse the product's storage: every element is
     overwritten below, so a fresh zeroed tensor is only needed once *)
  let result =
    match Env.weight_opt t.env out with
    | Some r when Tensor.shape r = shape -> r
    | _ -> Tensor.zeros shape
  in
  (match op with
  | Lf.Mat_vec { mat; vec; half; _ } ->
      let w = Env.weight t.env mat in
      let col = match half with `Left | `All -> 0 | `Right -> Tensor.dim w 2 in
      Tensor.mat_vec_into w (Env.weight t.env vec) ~col result
  | Lf.Mat_mat { left; left_slice; right; _ } ->
      let l = Env.weight t.env left and r = Env.weight t.env right in
      for s = 0 to shape.(0) - 1 do
        let nt = Graph_ctx.factor_slice t.ctx left_slice ~slices:(Tensor.dim l 0) s in
        Tensor.matmul_into (Tensor.slice0 l nt) (Tensor.slice0 r s) (Tensor.slice0 result s)
      done);
  Env.add_weight t.env ~name:out result

(* ------------------------------------------------------------------ *)
(* buffers + plan driver                                               *)
(* ------------------------------------------------------------------ *)

(* Every plan buffer is an arena view (no allocation of its own), so
   freeing one only unbinds it. *)
let free_temp_buffers t (plan : Plan.t) =
  List.iter
    (fun (b : Plan.buffer) -> if b.Plan.temp then ignore (Env.remove t.env b.Plan.name))
    plan.Plan.buffers

let rec exec_step t (plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> run_weight_op t ~program:plan.Plan.program op
  | Plan.Gemm spec -> run_gemm t spec
  | Plan.Traversal spec ->
      run_passes t ~program:plan.Plan.program ~name:(Ts.name spec) ~locals:spec.Ts.locals spec.Ts.strategy
        spec.Ts.body spec.Ts.passes
  | Plan.Fallback f ->
      (* computed like a traversal; only its charge differs *)
      run_passes t ~program:plan.Plan.program ~name:(Plan.step_name step) ~locals:[] f.Plan.strategy f.Plan.body
        f.Plan.passes
  | Plan.Fused f -> List.iter (exec_step t plan) f.Plan.members

(* --- plan-lifetime arena ---------------------------------------------

   Every [run_plan] binds plan buffers from an arena built once per
   (plan, free_temps mode) and reused by every later run: one device
   allocation per storage slot of the [Buffer_plan] coloring, sized for
   the largest buffer mapped to it.
   Steady-state runs bind [Tensor.view]s of the slot backings into the
   environment — no tensor allocation and no [Memory.alloc] on the hot
   path.  [rebind] re-cuts the views for another graph and keeps the
   backings, so one executor serves a sequence of sampled blocks.

   Sharing is only sound when a buffer's value may die at its last use,
   i.e. when the caller lets temporaries be freed ([free_temps = true]).
   A training forward pass keeps every temporary alive for the backward
   program, so its arena degrades to identity coloring: one slot per
   buffer, every buffer live for the whole run. *)

(* An unbound view: what a member holds until its arena is first cut. *)
let uncut = Tensor.create_uninit [| 0 |]

(* Cut the arena's storage for the executor's graph: size each slot for
   the largest member mapped to it, growing a backing that is too small
   (its superseded charge is freed first), and view every member into its
   slot as never bound.  A backing's contents are undefined until a member
   is bound. *)
let cut t (plan : Plan.t) a =
  let rows (m : managed) = Graph_ctx.rows_of_space t.ctx m.mbuf.Plan.space in
  let slot_cap = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let rows = rows m and dim = m.mbuf.Plan.dim in
      match Hashtbl.find_opt slot_cap m.mslot with
      | Some (r0, d0) when r0 * d0 >= rows * dim -> ()
      | _ -> Hashtbl.replace slot_cap m.mslot (rows, dim))
    a.amembers;
  Hashtbl.iter
    (fun slot (rows, dim) ->
      match Hashtbl.find_opt a.aslots slot with
      | Some b when Tensor.numel b.data >= rows * dim -> ()
      | old ->
          Option.iter (fun b -> Memory.free (Engine.memory t.engine) b.alloc) old;
          let alloc =
            Engine.alloc_tensor t.engine
              ~label:(Printf.sprintf "%s/arena_slot_%d" plan.Plan.name slot)
              ~rows ~cols:dim ()
          in
          Hashtbl.replace a.aslots slot { alloc; data = Tensor.create_uninit [| rows * dim |] })
    slot_cap;
  List.iter
    (fun m ->
      m.mview <- Tensor.view (Hashtbl.find a.aslots m.mslot).data [| rows m; m.mbuf.Plan.dim |];
      m.minitialized <- false)
    a.amembers

let create_arena t (plan : Plan.t) ~shared =
  let nsteps = List.length plan.Plan.steps in
  (* the arena manages every plan buffer: one already bound (an input, or
     another plan's buffer) is a malformed plan, refused — like a buffer
     the memory plan did not place — before anything is bound or charged *)
  List.iter
    (fun (b : Plan.buffer) ->
      if Option.is_some (Env.find_opt t.env b.Plan.name) then
        fail "Exec.run_plan: plan %s: buffer %s is already bound" plan.Plan.name b.Plan.name)
    plan.Plan.buffers;
  (* identity slots (no sharing) get fresh negative ids so they can never
     collide *)
  let next_ident = ref 0 in
  let placed =
    List.map
      (fun ((b : Plan.buffer), (p : Plan.placement)) ->
        let mslot =
          if shared then p.Plan.slot
          else begin
            decr next_ident;
            !next_ident
          end
        in
        ({ mbuf = b; mslot; muninit = p.Plan.uninit_ok; mview = uncut; minitialized = false }, p))
      (Pricing.placements plan)
  in
  let aunbind = Array.make (max 1 nsteps) [] in
  List.iter
    (fun ((m : managed), (p : Plan.placement)) ->
      if shared && m.mbuf.Plan.temp && p.Plan.first >= 0 && nsteps > 0 then
        aunbind.(p.Plan.last) <- m.mbuf.Plan.name :: aunbind.(p.Plan.last))
    placed;
  let apre, abind = Pricing.bind_points ~nsteps placed in
  let a =
    {
      amembers = List.map fst placed;
      abind;
      aunbind;
      apre;
      aslots = Hashtbl.create 16;
      aschedule = lazy (Pricing.schedule ~ctx:t.ctx plan);
    }
  in
  cut t plan a;
  a

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

(* Placements and bind points do not depend on the graph, so a rebind
   keeps them, re-cuts each arena (oldest first) and prices its plan
   afresh at the next run. *)
let rebind ?reuse t ~ctx =
  List.iter
    (fun (_, _, a) -> List.iter (fun m -> ignore (Env.remove t.env m.mbuf.Plan.name)) a.amembers)
    t.arenas;
  t.ctx <- ctx;
  t.reuse <- reuse;
  List.iter
    (fun (plan, _, a) ->
      cut t plan a;
      a.aschedule <- lazy (Pricing.schedule ~ctx plan))
    (List.rev t.arenas)

(* A backward edge GEMM over edge rows sums its gradient into the side's
   pairs (see [run_gemm]); warming reserves those rows on this domain. *)
let reserve_pair_rows t (plan : Plan.t) =
  List.iter
    (function
      | Plan.Gemm
          {
            Gs.task =
              ( Gs.Edge_linear_dinput { side; grad_output; grad_out_space = Mat.Rows_edges; _ }
              | Gs.Edge_linear_dweight { side; grad_output; grad_out_space = Mat.Rows_edges; _ } );
            _;
          } ->
          let space = match side with `Src -> Mat.Rows_compact_src | `Dst -> Mat.Rows_compact_dst in
          Option.iter
            (fun b ->
              Tensor.reserve_pair_rows ~rows:(Graph_ctx.rows_of_space t.ctx space) ~cols:b.Plan.dim)
            (Plan.find_buffer plan grad_output)
      | _ -> ())
    (Plan.flatten_steps plan)

(* Build the plan's arena without running it, so a server can take every
   arena allocation during warmup and keep the steady state
   allocation-free. *)
let warm_plan ?(free_temps = true) t (plan : Plan.t) =
  ignore (find_arena t plan ~shared:free_temps);
  reserve_pair_rows t plan

(* Bind a managed buffer for this run: accumulators ([zero_init]) are
   cleared every run (their memsets are in the plan's schedule); other
   buffers start zeroed the first time they exist — which for a
   freed-and-recreated temporary is every run — unless [Buffer_plan]
   proved their defining step fully overwrites them. *)
let bind_managed ~shared t (m : managed) =
  let b = m.mbuf in
  let needs_zero =
    if b.Plan.zero_init then true
    else if not m.minitialized then not m.muninit
    else shared && b.Plan.temp && not m.muninit
  in
  if needs_zero then Tensor.fill m.mview 0.0;
  m.minitialized <- true;
  Env.add t.env ~name:b.Plan.name
    { Env.tensor = m.mview; space = b.Plan.space; dim = b.Plan.dim; alloc = None }

(* Each step's scheduled memsets and kernels are charged after the step
   computes, before [on_step] sees it. *)
let run_plan ?on_step ?(free_temps = true) t (plan : Plan.t) =
  Hector_obs.time (Engine.obs t.engine) ~kind:"run" ("run_plan:" ^ plan.Plan.name) @@ fun () ->
  let arena = find_arena t plan ~shared:free_temps in
  let schedule = Lazy.force arena.aschedule in
  let launch = Array.iter (Engine.launch t.engine) in
  List.iter (bind_managed ~shared:free_temps t) arena.apre;
  launch schedule.Pricing.at_start;
  List.iteri
    (fun i step ->
      List.iter (bind_managed ~shared:free_temps t) arena.abind.(i);
      exec_step t plan step;
      launch schedule.Pricing.at_step.(i);
      (match on_step with None -> () | Some f -> f i);
      if free_temps then List.iter (fun n -> ignore (Env.remove t.env n)) arena.aunbind.(i))
    plan.Plan.steps;
  if free_temps then free_temp_buffers t plan
