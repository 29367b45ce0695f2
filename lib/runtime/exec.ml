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
   buffers: entries, weight stacks and row maps are resolved to flat
   arrays once, and float operations keep the scalar definition's order
   and form, so results are bit-identical to a per-edge value interpreter
   (DESIGN.md, "Staged traversals"). *)

(* An instantiated sub-expression: after [run edge node] its value is the
   [dim] floats of [arr] from [off].  Computed nodes own [arr]; row and
   weight reads point it at tensor storage instead of copying. *)
type node = { arr : float array; mutable off : int; run : int -> int -> unit }

(* A staged sub-expression: its shape ([scalar] tells a [Scalar] from a
   one-element [Vector]; they broadcast differently) and how to
   instantiate it.  Instances own scratch buffers, so each concurrent
   sweep chunk makes its own. *)
type staged = { dim : int; scalar : bool; make : inst -> node }

(* Per-instance state: the weight-gradient sink, and one buffer per
   register-local definition. *)
and inst = { grads : string -> Tensor.t; slots : float array array }

let nop _ _ = ()

let computed dim scalar body =
  { dim; scalar; make = (fun inst -> let out = Array.make dim 0.0 in { arr = out; off = 0; run = body inst out }) }

(* A read of the [dim] floats at [base + at edge node * stride]. *)
let view dim scalar data base stride at =
  let make _ = let rec n = { arr = data; off = base; run = (fun e v -> n.off <- base + (at e v * stride)) } in n in
  { dim; scalar; make }

let const c = { dim = 1; scalar = true; make = (fun _ -> { arr = [| c |]; off = 0; run = nop }) }

let blit (src : float array) so (dst : float array) d n =
  for j = 0 to n - 1 do
    dst.(d + j) <- src.(so + j)
  done

(* The row an access through [ent] resolves to, in a buffer of [space]. *)
let row_at ctx ent space =
  let g = ctx.Graph_ctx.graph in
  match ent with
  | Ir.Cur_node -> fun _ v -> v
  | Ir.Src -> fun e _ -> g.G.src.(e)
  | Ir.Dst -> fun e _ -> g.G.dst.(e)
  | Ir.Cur_edge -> (
      match (space, Graph_ctx.compact_of_space ctx space) with
      | _, Some cm -> fun e _ -> cm.Cm.row_of_edge.(e)
      | Mat.Rows_edges, None -> fun e _ -> e
      | _ -> invalid_arg "Graph_ctx.row_of_edge: node-space tensor")

(* The weight-stack slice an iteration uses. *)
let slice_at ctx slice =
  let g = ctx.Graph_ctx.graph in
  match slice with
  | Ir.By_etype -> fun e _ -> g.G.etype.(e)
  | Ir.By_ntype -> fun _ v -> g.G.node_type.(v)
  | Ir.By_src_ntype -> fun e _ -> g.G.node_type.(g.G.src.(e))
  | Ir.By_dst_ntype -> fun e _ -> g.G.node_type.(g.G.dst.(e))
  | Ir.Shared -> fun _ _ -> 0

(* [out.(j) <- a.(ao + j*sa) op b.(bo + j*sb)]; a zero stride broadcasts
   a scalar.  One loop per operator: no per-element dispatch. *)
let binop_loop = function
  | Ir.Add ->
      fun a ao sa b bo sb out n -> for j = 0 to n - 1 do out.(j) <- a.(ao + (j * sa)) +. b.(bo + (j * sb)) done
  | Ir.Sub ->
      fun a ao sa b bo sb out n -> for j = 0 to n - 1 do out.(j) <- a.(ao + (j * sa)) -. b.(bo + (j * sb)) done
  | Ir.Mul ->
      fun a ao sa b bo sb out n -> for j = 0 to n - 1 do out.(j) <- a.(ao + (j * sa)) *. b.(bo + (j * sb)) done
  | Ir.Div ->
      fun a ao sa b bo sb out n -> for j = 0 to n - 1 do out.(j) <- a.(ao + (j * sa)) /. b.(bo + (j * sb)) done

let unop_loop = function
  | Ir.Exp -> fun a o out n -> for j = 0 to n - 1 do out.(j) <- Stdlib.exp a.(o + j) done
  | Ir.Neg -> fun a o out n -> for j = 0 to n - 1 do out.(j) <- -.a.(o + j) done
  | Ir.Reciprocal -> fun a o out n -> for j = 0 to n - 1 do out.(j) <- 1.0 /. a.(o + j) done
  | Ir.Leaky_relu ->
      fun a o out n ->
        for j = 0 to n - 1 do
          out.(j) <- (let x = a.(o + j) in if x > 0.0 then x else leaky_slope *. x)
        done
  | Ir.Relu ->
      fun a o out n -> for j = 0 to n - 1 do out.(j) <- (let x = a.(o + j) in if x > 0.0 then x else 0.0) done
  | Ir.Rsqrt -> fun a o out n -> for j = 0 to n - 1 do out.(j) <- 1.0 /. sqrt a.(o + j) done
  | Ir.Leaky_relu_grad ->
      fun a o out n -> for j = 0 to n - 1 do out.(j) <- (if a.(o + j) > 0.0 then 1.0 else leaky_slope) done
  | Ir.Relu_grad -> fun a o out n -> for j = 0 to n - 1 do out.(j) <- (if a.(o + j) > 0.0 then 1.0 else 0.0) done

(* [locals] maps each register local to its current definition. *)
let rec stage_expr t locals e =
  let stage = stage_expr t locals in
  match e with
  | Ir.Const c -> const c
  | (Ir.Feature (Ir.Cur_edge, n) | Ir.Data (Ir.Cur_edge, n)) when Hashtbl.mem locals n -> Hashtbl.find locals n
  | Ir.Feature (ent, n) | Ir.Data (ent, n) ->
      let entry = Env.find t.env n in
      let data, base = Tensor.storage entry.Env.tensor and stride = Tensor.dim entry.Env.tensor 1 in
      let scalar = entry.Env.dim = 1 in
      view (if scalar then 1 else stride) scalar data base stride (row_at t.ctx ent entry.Env.space)
  | Ir.Weight (n, slice) ->
      let stack = Env.weight t.env n in
      let data, base = Tensor.storage stack in
      let size = Tensor.numel stack / max 1 (Tensor.dim stack 0) in
      view size (Tensor.ndim stack = 2 && size = 1) data base size (slice_at t.ctx slice)
  | Ir.Linear (x, Ir.Weight (w, slice)) | Ir.Linear_t (x, Ir.Weight (w, slice)) ->
      let x = stage x and stack = Env.weight t.env w in
      let k = Tensor.dim stack 1 and n = Tensor.dim stack 2 in
      let transposed = match e with Ir.Linear_t _ -> true | _ -> false in
      if transposed && x.dim <> n then fail "linear_t: input %d vs weight cols %d" x.dim n;
      if (not transposed) && x.dim <> k then fail "linear: input %d vs weight rows %d" x.dim k;
      let wa, base = Tensor.storage stack and at = slice_at t.ctx slice in
      let dim = if transposed then k else n in
      computed dim (dim = 1) (fun inst out ->
          let x = x.make inst in
          fun e v ->
            x.run e v;
            let xa = x.arr and xo = x.off and w0 = base + (at e v * k * n) in
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
      let make inst =
        let a = a.make inst in
        let rec n = { arr = a.arr; off = 0; run = (fun e v -> a.run e v; n.off <- a.off + lo) } in
        n
      in
      { dim = len; scalar = len = 1; make }
  | Ir.Binop (op, a, b) ->
      let a = stage a and b = stage b in
      if (not a.scalar) && (not b.scalar) && a.dim <> b.dim then
        fail "vector op dimension mismatch %d vs %d" a.dim b.dim;
      let dim = if a.scalar then b.dim else a.dim in
      let sa = if a.scalar then 0 else 1 and sb = if b.scalar then 0 else 1 and f = binop_loop op in
      computed dim (a.scalar && b.scalar) (fun inst out ->
          let a = a.make inst and b = b.make inst in
          fun e v ->
            a.run e v;
            b.run e v;
            f a.arr a.off sa b.arr b.off sb out dim)
  | Ir.Unop (op, a) ->
      let a = stage a and f = unop_loop op in
      let d = a.dim in
      computed d a.scalar (fun inst out ->
          let a = a.make inst in
          fun e v ->
            a.run e v;
            f a.arr a.off out d)
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

let stage_write t (entry : Env.entry) ent ~accumulate (x : staged) =
  let d = entry.Env.dim in
  if x.dim <> d then fail "write of dim %d into buffer of dim %d" x.dim d;
  let data, base = Tensor.storage entry.Env.tensor and stride = Tensor.dim entry.Env.tensor 1 in
  let at = row_at t.ctx ent entry.Env.space in
  fun inst ->
    let x = x.make inst in
    if accumulate then fun e v ->
      x.run e v;
      let o = base + (at e v * stride) and xa = x.arr and xo = x.off in
      for j = 0 to d - 1 do
        data.(o + j) <- data.(o + j) +. xa.(xo + j)
      done
    else fun e v ->
      x.run e v;
      let o = base + (at e v * stride) and xa = x.arr and xo = x.off in
      for j = 0 to d - 1 do
        data.(o + j) <- 0.0 +. xa.(xo + j)
      done

(* Weight-gradient accumulation: matrices get dW[idx] += x ⊗ dy, vectors
   dv[idx] += x * dy.  The sink ([inst.grads]: the environment's gradient
   stack on the sequential path, a per-chunk scratch stack during a
   parallel sweep) creates gradients on first use, so the target is
   resolved on the first execution, not at staging. *)
let stage_grad_weight t ~program locals name x dy =
  let slice =
    match Ir.find_decl program name with
    | Some (Ir.Weight_mat { slice; _ }) | Some (Ir.Weight_vec { slice; _ }) -> slice
    | _ -> fail "Grad_weight: %S is not a declared weight" name
  in
  let x = stage_expr t locals x and dy = stage_expr t locals dy in
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
  let at = slice_at t.ctx slice in
  fun inst ->
    let x = x.make inst and dy = dy.make inst and target = lazy (Tensor.storage (inst.grads name)) in
    fun e v ->
      x.run e v;
      dy.run e v;
      let g, base = Lazy.force target in
      let g0 = base + (at e v * rows * cols) and xa = x.arr and xo = x.off in
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
let stage_stmt t ~program locals slot st =
  match st with
  | Ir.Assign (ent, n, e) -> (
      let x = stage_expr t locals e in
      if ent = Ir.Cur_edge && (Hashtbl.mem locals n || Env.find_opt t.env n = None) then begin
        let k = !slot and d = x.dim in
        incr slot;
        Hashtbl.replace locals n
          { dim = d; scalar = x.scalar; make = (fun inst -> { arr = inst.slots.(k); off = 0; run = nop }) };
        fun inst ->
          let buf = Array.make d 0.0 in
          inst.slots.(k) <- buf;
          let x = x.make inst in
          fun e v ->
            x.run e v;
            blit x.arr x.off buf 0 d
      end
      else
        match Env.find_opt t.env n with
        | Some entry -> stage_write t entry ent ~accumulate:false x
        | None -> fail "write to unknown buffer %S" n)
  | Ir.Accumulate (ent, n, e) ->
      let x = stage_expr t locals e in
      stage_write t (Env.find t.env n) ent ~accumulate:true x
  | Ir.Grad_weight { name; x; dy } -> stage_grad_weight t ~program locals name x dy
  | Ir.For_each _ -> fail "nested loop inside traversal body"

(* Stage one pass; the result instantiates it for a gradient sink.  Locals
   start every iteration as [Scalar 0.0]; pair-local statements run only
   on their pair's representative edge. *)
let stage_pass t ~program ~locals pass =
  let defs = Hashtbl.create 8 and slot = ref 0 in
  List.iter (fun n -> Hashtbl.replace defs n (const 0.0)) locals;
  let stmts =
    List.map
      (fun (st, cls) ->
        let s = stage_stmt t ~program defs slot st in
        let gate rep inst =
          let s = s inst in
          fun e v -> if rep.(e) then s e v
        in
        match cls with
        | Per_edge -> s
        | Per_pair_src -> gate t.ctx.Graph_ctx.rep_src
        | Per_pair_dst -> gate t.ctx.Graph_ctx.rep_dst)
      pass
  in
  let nslots = !slot in
  fun grads ->
    let inst = { grads; slots = Array.make nslots [||] } in
    let stmts = Array.of_list (List.map (fun s -> s inst) stmts) in
    fun e v ->
      for i = 0 to Array.length stmts - 1 do
        stmts.(i) e v
      done

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
   themselves for [Node_map]. *)
let sweep_nodes t strategy run lo hi =
  match strategy with
  | Ts.Node_map ->
      for v = lo to hi - 1 do
        run (-1) v
      done
  | Ts.Edge_parallel | Ts.Node_gather ->
      let csr = t.ctx.Graph_ctx.in_csr and gather = strategy = Ts.Node_gather in
      for v = lo to hi - 1 do
        for k = csr.Csr.row_ptr.(v) to csr.Csr.row_ptr.(v + 1) - 1 do
          run csr.Csr.eid.(k) (if gather then v else -1)
        done
      done

(* Destination-segmented across the domain pool: each chunk instantiates
   the staged body with its own gradient scratch. *)
let parallel_sweep t strategy make =
  Dp.parallel_for_reduce ~grain:node_grain t.ctx.Graph_ctx.graph.G.num_nodes
    ~init:(fun () -> Hashtbl.create 4)
    ~body:(fun tbl lo hi ->
      sweep_nodes t strategy (make (scratch_grads t tbl)) lo hi;
      tbl)
    ~merge:merge_grad_scratch
  |> apply_grad_scratch t

let sequential_sweep t strategy make =
  let g = t.ctx.Graph_ctx.graph and run = make (env_grads t) in
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
   is touched), then sweep them in order. *)
let run_passes t ~program ~locals strategy passes =
  List.map (fun p -> (p.parallel, stage_pass t ~program ~locals p.stmts)) passes
  |> List.iter (fun (parallel, make) ->
         if parallel then parallel_sweep t strategy make else sequential_sweep t strategy make)

(* The single launch charged for a whole traversal spec (passes share it):
   per-edge statements iterate over edges (or nodes for Node_map),
   pair-local statements only over their pair count. *)
let traversal_kernel ~env ~ctx ~program ~layout ~classes (spec : Ts.t) =
  let g = ctx.Graph_ctx.graph in
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
  let classes = classify t.env spec in
  split_passes t.env classes
  |> schedule t.env ~locals:spec.Ts.locals spec.Ts.strategy
  |> run_passes t ~program ~locals:spec.Ts.locals spec.Ts.strategy;
  launch_attr t (traversal_kernel ~env:t.env ~ctx:t.ctx ~program ~layout ~classes spec)

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
  run_passes t ~program ~locals:[] f.Plan.strategy (fallback_passes t.env f);
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
                let s = (Env.find t.env sname).Env.tensor in
                let sa, s0 = Tensor.storage s and oa, o0 = Tensor.storage os in
                let ss = Tensor.dim s 1 and cols = Tensor.dim os 1 in
                for i = 0 to count - 1 do
                  let factor = sa.(s0 + ((start + i) * ss)) in
                  for j = 0 to out.Env.dim - 1 do
                    oa.(o0 + (i * cols) + j) <- oa.(o0 + (i * cols) + j) *. factor
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
