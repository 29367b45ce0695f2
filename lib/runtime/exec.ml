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
  sscratch : scratch;
}

(* Host scratch for pair-invariant reductions (see [stage_pass]): buffer
   [k] holds a pass's [k]th reduction, one row per compact pair, and is
   kept at its high-water size.  It lives in host memory only — the
   simulated device never sees it — and is shared through the slab by
   executors that share one. *)
and scratch = { mutable bufs : float array array }

let create_slab ?(epoch = 0) () =
  { sepoch = epoch; sbackings = Hashtbl.create 32; sscratch = { bufs = [||] } }
let slab_epoch slab = slab.sepoch

type t = {
  engine : Engine.t;
  ctx : Graph_ctx.t;
  env : Env.t;
  opaque : (string * opaque_fn) list;
  slab : slab option;
  scratch : scratch;
  mutable arenas : (Plan.t * bool * arena) list;
}

let create ?(opaque = []) ?slab ~engine ~ctx ~env () =
  let scratch = match slab with Some s -> s.sscratch | None -> { bufs = [||] } in
  { engine; ctx; env; opaque; slab; scratch; arenas = [] }

let value_dim = function Scalar _ -> 1 | Vector v -> Array.length v

let fail fmt = Format.kasprintf invalid_arg fmt

let leaky_slope = 0.01

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
   - in an edge sweep, an [Inner]/[Linear]/[Linear_t] whose operands are
     all constant on one side's compact pairs, and which reads nothing
     the pass writes, is evaluated once per pair before the sweep; the
     sweep reads the pair's value from host scratch. *)

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

(* Per-instance state: the weight-gradient sink, and one buffer per
   register-local definition. *)
and inst = { grads : string -> Tensor.t; slots : float array array }

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
   maps each pair-invariant reduction to its scratch read. *)
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
   dv[idx] += x * dy.  The sink ([inst.grads]: the environment's gradient
   stack on the sequential path, a per-chunk scratch stack during a
   parallel sweep) creates gradients on first use, so the target is
   resolved on the first execution, not at staging. *)
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
  let wi = slice_index t.ctx slice in
  fun inst ->
    let x = x.make inst and dy = dy.make inst and target = lazy (Tensor.storage (inst.grads name)) in
    fun e v ->
      x.run e v;
      dy.run e v;
      let g, base = Lazy.force target in
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

(* --- pair-invariant reductions -------------------------------------- *)

(* The reductions of an edge pass that are evaluated once per compact
   pair: each maximal [Inner]/[Linear]/[Linear_t] in a [Per_edge]
   statement whose reads are all constant on one side's (etype,
   endpoint) pairs — that side's endpoint features, compact rows of that
   side, and [By_etype], [Shared] or that side's node-type weights, with
   at least one read of the first two kinds — and none of which names a
   buffer the pass writes.  Locals, the current node, [By_ntype] weights,
   constants and opaque calls refuse hoisting; pair-local statements
   already run once per pair.  Distinct reductions, in order of first
   occurrence (without constants, [=] compares them exactly). *)
let pair_invariant env ~locals pass =
  let is_local n = List.mem n locals || Env.find_opt env n = None in
  let written =
    List.filter_map
      (fun (st, _) ->
        match st with
        | (Ir.Assign (ent, n, _) | Ir.Accumulate (ent, n, _)) when not (ent = Ir.Cur_edge && is_local n) -> Some n
        | _ -> None)
      pass
  in
  let side e =
    let src = ref true and dst = ref true and anchored = ref false in
    let neither () = src := false; dst := false in
    let anchor s = anchored := true; if s = `Src then dst := false else src := false in
    Ir.iter_expr
      (function
        | (Ir.Feature (_, n) | Ir.Data (_, n)) when List.mem n written -> neither ()
        | Ir.Feature (ent, n) | Ir.Data (ent, n) -> (
            match ent with
            | Ir.Src -> anchor `Src
            | Ir.Dst -> anchor `Dst
            | Ir.Cur_node -> neither ()
            | Ir.Cur_edge -> (
                if is_local n then neither ()
                else
                  match (Env.find env n).Env.space with
                  | Mat.Rows_compact_src -> anchor `Src
                  | Mat.Rows_compact_dst -> anchor `Dst
                  | Mat.Rows_edges | Mat.Rows_nodes -> neither ()))
        | Ir.Weight (_, Ir.By_src_ntype) -> dst := false
        | Ir.Weight (_, Ir.By_dst_ntype) -> src := false
        | Ir.Weight (_, Ir.By_ntype) | Ir.Const _ | Ir.Opaque _ -> neither ()
        | _ -> ())
      e;
    if not !anchored then None else if !src then Some `Src else if !dst then Some `Dst else None
  in
  let found = ref [] in
  let rec walk e =
    match (e, side e) with
    | (Ir.Inner _ | Ir.Linear _ | Ir.Linear_t _), Some s ->
        if not (List.exists (fun (_, h) -> h = e) !found) then found := (s, e) :: !found
    | (Ir.Linear (x, _) | Ir.Linear_t (x, _) | Ir.Slice (x, _, _) | Ir.Unop (_, x)), _ -> walk x
    | (Ir.Inner (a, b) | Ir.Concat (a, b) | Ir.Binop (_, a, b)), _ -> walk a; walk b
    | Ir.Opaque (_, args), _ -> List.iter walk args
    | (Ir.Const _ | Ir.Feature _ | Ir.Data _ | Ir.Weight _), _ -> ()
  in
  List.iter (fun (st, cls) -> if cls = Per_edge then List.iter walk (Ir.stmt_exprs st)) pass;
  List.rev !found

(* Pairs per chunk of a parallel pre-pass. *)
let pair_grain = 256

(* The executor's host scratch buffer [k], at least [size] floats. *)
let scratch t k size =
  let s = t.scratch in
  if Array.length s.bufs <= k then
    s.bufs <- Array.init (k + 1) (fun i -> if i < Array.length s.bufs then s.bufs.(i) else [||]);
  if Array.length s.bufs.(k) < size then s.bufs.(k) <- Array.make size 0.0;
  s.bufs.(k)

let no_grads name = fail "pair-invariant reduction reads the gradient of %S" name

(* Stage reduction [e] on [side]'s pairs into scratch buffer [k]: the
   pre-pass evaluates it at every pair's representative edge, in
   parallel over pairs; the sweep reads the pair's row through
   [row_of_edge]. *)
let stage_pair_invariant t k (side, e) =
  let x = stage_expr t ~hoist:[] (Hashtbl.create 1) e in
  let cm, reps =
    match side with
    | `Src -> (Graph_ctx.compact_src t.ctx, Graph_ctx.pair_rep_src t.ctx)
    | `Dst -> (Graph_ctx.compact_dst t.ctx, Graph_ctx.pair_rep_dst t.ctx)
  in
  let d = x.dim and pairs = cm.Cm.num_pairs in
  let buf = scratch t k (pairs * d) in
  let pre () =
    Dp.parallel_for ~grain:pair_grain pairs (fun lo hi ->
        let x = x.make { grads = no_grads; slots = [||] } in
        for p = lo to hi - 1 do
          x.run reps.(p) (-1);
          blit x.arr x.off buf (p * d) d
        done)
  in
  (pre, (e, view d x.scalar buf 0 d (Of_edge cm.Cm.row_of_edge)))

(* Stage one pass: its pair pre-passes, and its body, which instantiates
   for a gradient sink.  Locals start every iteration as [Scalar 0.0];
   pair-local statements run only on their pair's representative edge. *)
let stage_pass t ~program ~locals ~edges pass =
  let pre, hoist =
    if edges then List.split (List.mapi (stage_pair_invariant t) (pair_invariant t.env ~locals pass))
    else ([], [])
  in
  let defs = Hashtbl.create 8 and slot = ref 0 in
  List.iter (fun n -> Hashtbl.replace defs n (const 0.0)) locals;
  let stmts =
    List.map
      (fun (st, cls) ->
        let gate rep =
          let s = stage_stmt t ~program ~hoist:[] defs slot st in
          fun inst ->
            let s = s inst in
            fun e v -> if rep.(e) = e then s e v
        in
        match cls with
        | Per_edge -> stage_stmt t ~program ~hoist defs slot st
        | Per_pair_src -> gate (Graph_ctx.rep_src t.ctx)
        | Per_pair_dst -> gate (Graph_ctx.rep_dst t.ctx))
      pass
  in
  let nslots = !slot in
  ( pre,
    fun grads ->
      let inst = { grads; slots = Array.make nslots [||] } in
      let stmts = Array.of_list (List.map (fun s -> s inst) stmts) in
      fun e v ->
        for i = 0 to Array.length stmts - 1 do
          stmts.(i) e v
        done )

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

(* How many destination nodes one chunk takes; small because a staged
   iteration still costs far more than the chunk bookkeeping (and each
   chunk instantiates its own copy of the staged body). *)
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

(* Destination-segmented across the domain pool: each chunk instantiates
   the staged body with its own gradient scratch. *)
let parallel_sweep t strategy make =
  let sweep = sweep_nodes t strategy in
  Dp.parallel_for_reduce ~grain:node_grain (Graph_ctx.graph t.ctx).G.num_nodes
    ~init:(fun () -> Hashtbl.create 4)
    ~body:(fun tbl lo hi ->
      sweep (make (scratch_grads t tbl)) lo hi;
      tbl)
    ~merge:merge_grad_scratch
  |> apply_grad_scratch t

let sequential_sweep t strategy make =
  let g = Graph_ctx.graph t.ctx and run = make (env_grads t) in
  match strategy with
  | Ts.Edge_parallel ->
      for e = 0 to g.G.num_edges - 1 do
        run e (-1)
      done
  | Ts.Node_gather | Ts.Node_map -> sweep_nodes t strategy run 0 g.G.num_nodes

type pass = { stmts : (Ir.stmt * stmt_iteration) list; parallel : bool }

let schedule env ~locals strategy passes =
  List.map
    (fun stmts ->
      { stmts; parallel = (not (Dp.sequential ())) && pass_parallelizable env locals strategy stmts })
    passes

let classify env (spec : Ts.t) = List.map (fun st -> (st, classify_stmt env spec st)) spec.Ts.body

let traversal_passes env (spec : Ts.t) =
  schedule env ~locals:spec.Ts.locals spec.Ts.strategy (split_passes env (classify env spec))

let fallback_passes env (f : Plan.fallback) =
  schedule env ~locals:[] f.Plan.strategy [ List.map (fun st -> (st, Per_edge)) f.Plan.body ]

(* Stage every pass at step entry (shape errors surface before any buffer
   is touched), then run them in order: each pass's pair pre-passes, then
   its sweep. *)
let run_passes t ~program ~locals strategy passes =
  let edges = strategy <> Ts.Node_map in
  List.map (fun p -> (p.parallel, stage_pass t ~program ~locals ~edges p.stmts)) passes
  |> List.iter (fun (parallel, (pre, make)) ->
         List.iter (fun f -> f ()) pre;
         if parallel then parallel_sweep t strategy make else sequential_sweep t strategy make)

(* The single launch charged for a whole traversal spec (passes share it):
   per-edge statements iterate over edges (or nodes for Node_map),
   pair-local statements only over their pair count. *)
let traversal_kernel ~env ~ctx ~program ~layout ~classes (spec : Ts.t) =
  let g = Graph_ctx.graph ctx in
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
    | Per_pair_src -> (Graph_ctx.compact_src ctx).Cm.num_pairs
    | Per_pair_dst -> (Graph_ctx.compact_dst ctx).Cm.num_pairs
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

let run_traversal t ~program (spec : Ts.t) =
  split_passes t.env (classify t.env spec)
  |> schedule t.env ~locals:spec.Ts.locals spec.Ts.strategy
  |> run_passes t ~program ~locals:spec.Ts.locals spec.Ts.strategy

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
  let g = Graph_ctx.graph ctx in
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
  run_passes t ~program ~locals:[] f.Plan.strategy (fallback_passes t.env f)

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

let operand_entry t op = Env.find t.env (Gs.operand_name op)

(* The launch descriptor of a GEMM spec — the task decides the gather /
   scatter / atomic flags and where the [rows × k × n] shape comes from
   (weight-stack dims for forward and dinput tasks, operand dims for
   dweight tasks).  Shared by {!run_gemm} and the plan cost estimator. *)
let gemm_kernel ~env ~ctx (spec : Gs.t) =
  let g = Graph_ctx.graph ctx in
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

(* Each GEMM step is one segmented kernel call over the context's type
   offsets: one parallel region for every relation.  The forward gather
   into edge rows computes each (relation, endpoint) pair's first edge
   only and copies that row to the pair's other edges.  The backward
   steps of an edge-row gradient first sum its rows into the side's
   (relation, endpoint) pairs, so they run the compact layout's GEMM on
   the compact layout's rows.  The launch charged below still covers
   every edge row: the device model prices the U layout's kernel, and
   only the host stops repeating multiply-adds. *)
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
      Tensor.segment_matmul_into ~trans_b:transpose
        ~beta:(if acc then 1.0 else 0.0)
        ~offsets:(node_offsets slice) x (Env.weight t.env weight) out
  | Gs.Edge_linear { side; input; weight; output; out_space; transpose; per_row_scalar } ->
      let rep =
        match (out_space, side) with
        | Mat.Rows_edges, `Src -> Graph_ctx.rep_src t.ctx
        | Mat.Rows_edges, `Dst -> Graph_ctx.rep_dst t.ctx
        | _ -> [||] (* compact rows are unique pairs *)
      in
      (* gather applied on the fly inside the GEMM row loop (§4.2): no
         per-edge copy of the node features is ever materialized *)
      Tensor.segment_gather_into ~trans_b:transpose ~rep
        ?scale:(Option.map (fun s -> (Env.find t.env s).Env.tensor) per_row_scalar)
        ~offsets:(Graph_ctx.offsets t.ctx out_space)
        (operand_entry t input).Env.tensor
        ~idx:(Graph_ctx.endpoint_ids t.ctx out_space side)
        (Env.weight t.env weight) (Env.find t.env output).Env.tensor
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
  let mg = (Graph_ctx.graph t.ctx).G.metagraph in
  match op with
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
      Env.add_weight t.env ~name:out result

(* ------------------------------------------------------------------ *)
(* buffers + plan driver                                               *)
(* ------------------------------------------------------------------ *)

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

let launch_memset t ~inlined b =
  Option.iter (Engine.launch t.engine) (buffer_memset ~ctx:t.ctx ~inlined b)

let alloc_buffer ~inlined t (b : Plan.buffer) =
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
  launch_memset t ~inlined b

let free_buffer t name =
  match Env.remove t.env name with
  | Some { Env.alloc = Some a; _ } -> Hector_gpu.Memory.free (Engine.memory t.engine) a
  | _ -> ()

let free_temp_buffers t (plan : Plan.t) =
  List.iter
    (fun (b : Plan.buffer) -> if b.Plan.temp then free_buffer t b.Plan.name)
    plan.Plan.buffers

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

(* The launch sequence a step charges per steady-state run, built without
   executing anything — [run_step] launches exactly this list.  Requires
   every buffer the plan reads or writes bound in [env] (dims and spaces
   only — tensors are never touched) and weight stacks for every weight
   the specs reference. *)
let rec step_kernels ~env ~ctx ~(plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> [ weight_op_kernel ~env op ]
  | Plan.Gemm spec -> [ gemm_kernel ~env ~ctx spec ]
  | Plan.Traversal spec ->
      [
        traversal_kernel ~env ~ctx ~program:plan.Plan.program ~layout:plan.Plan.layout
          ~classes:(classify env spec) spec;
      ]
  | Plan.Fallback f -> fallback_kernels ~ctx f
  | Plan.Fused f -> (
      match List.concat_map (step_kernels ~env ~ctx ~plan) f.Plan.members with
      | [] -> []
      | ks -> [ merge_kernels (Plan.step_name step) ks ])

let rec exec_step t (plan : Plan.t) step =
  match step with
  | Plan.Weight_op op -> run_weight_op t op
  | Plan.Gemm spec -> run_gemm t spec
  | Plan.Traversal spec -> run_traversal t ~program:plan.Plan.program spec
  | Plan.Fallback f -> run_fallback t ~program:plan.Plan.program f
  | Plan.Fused f -> List.iter (exec_step t plan) f.Plan.members

(* Compute the step, then charge its [step_kernels] under the step's
   provenance (kernels that carry their own tag keep it). *)
let run_step ~step_idx t (plan : Plan.t) step =
  exec_step t plan step;
  let prov =
    Some
      (Kernel.provenance ~step:step_idx ~origin:(Plan.step_origin step)
         ~fused:(Plan.step_constituents step) (Plan.step_op step))
  in
  List.iter
    (fun (k : Kernel.t) ->
      let k = match k.Kernel.prov with None -> { k with Kernel.prov } | Some _ -> k in
      Engine.launch t.engine k)
    (step_kernels ~env:t.env ~ctx:t.ctx ~plan step)

(* --- plan-lifetime arena ---------------------------------------------

   Every [run_plan] binds plan buffers from an arena built once per
   (plan, free_temps mode) and reused by every later run: one device
   allocation per storage slot of the [Buffer_plan] coloring, sized for
   the largest buffer mapped to it.
   Steady-state runs bind [Tensor.view]s of the slot backings into the
   environment — no tensor allocation and no [Memory.alloc] on the hot
   path.

   Sharing is only sound when a buffer's value may die at its last use,
   i.e. when the caller lets temporaries be freed ([free_temps = true]).
   A training forward pass keeps every temporary alive for the backward
   program, so its arena degrades to identity coloring: one slot per
   buffer, every buffer live for the whole run. *)

(* Each buffer's placement in the plan's memory plan, by name. *)
let placements (plan : Plan.t) =
  let memory = match plan.Plan.memory with Some m -> m | None -> Bp.analyze plan in
  let place_of = Hashtbl.create 16 in
  List.iter (fun (p : Plan.placement) -> Hashtbl.replace place_of p.Plan.var p) memory.Plan.placements;
  place_of

(* Arena members grouped by where [run_plan] binds them: at run start
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

let create_arena t (plan : Plan.t) ~shared =
  let nsteps = List.length plan.Plan.steps in
  let place_of = placements plan in
  (* buffers already bound in the environment (inputs, persistent
     buffers, another plan's buffers) keep [alloc_buffer]'s
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
  let aunbind = Array.make (max 1 nsteps) [] in
  List.iter
    (fun ((b : Plan.buffer), (p : Plan.placement), _, _) ->
      if shared && b.Plan.temp && p.Plan.first >= 0 && nsteps > 0 then
        aunbind.(p.Plan.last) <- b.Plan.name :: aunbind.(p.Plan.last))
    placed;
  let apre, abind =
    bind_points ~nsteps
      (List.map
         (fun ((b : Plan.buffer), (p : Plan.placement), rows, slot) ->
           ( {
               mbuf = b;
               mview = Tensor.view (Hashtbl.find backings slot) [| rows; b.Plan.dim |];
               muninit = p.Plan.uninit_ok;
               minitialized = false;
             },
             p ))
         placed)
  in
  { abind; aunbind; apre; aother }

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

(* Build (or adopt from the slab) the plan's arena without running it, so
   a server can take every slab allocation during warmup and keep the
   steady state allocation-free. *)
let warm_plan ?(free_temps = true) t (plan : Plan.t) =
  ignore (find_arena t plan ~shared:free_temps);
  reserve_pair_rows t plan

(* Bind a managed buffer for this run: accumulators ([zero_init]) are
   cleared (and charged a memset launch) every run; other buffers start
   zeroed the first time they exist — which for a freed-and-recreated
   temporary is every run — unless [Buffer_plan] proved their defining
   step fully overwrites them. *)
let bind_managed ~inlined ~shared t (m : managed) =
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
  launch_memset t ~inlined b

(* The launches [run_plan] charges on a fresh executor, where the arena
   manages every buffer the memory plan places: each memset where its
   buffer is bound (unplaced buffers first), each step's kernels after
   the step's memsets. *)
let plan_kernels ~env ~ctx (plan : Plan.t) =
  let inlined = Plan.inline_zeroed plan and place_of = placements plan in
  let memsets = List.filter_map (buffer_memset ~ctx ~inlined) in
  let placed, other =
    List.partition_map
      (fun (b : Plan.buffer) ->
        match Hashtbl.find_opt place_of b.Plan.name with Some p -> Left (b, p) | None -> Right b)
      plan.Plan.buffers
  in
  let pre, at = bind_points ~nsteps:(List.length plan.Plan.steps) placed in
  memsets other @ memsets pre
  @ List.concat (List.mapi (fun i step -> memsets at.(i) @ step_kernels ~env ~ctx ~plan step) plan.Plan.steps)

let run_plan ?on_step ?(free_temps = true) t (plan : Plan.t) =
  Hector_obs.time (Engine.obs t.engine) ~kind:"run" ("run_plan:" ^ plan.Plan.name) @@ fun () ->
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
