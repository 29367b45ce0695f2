(* Staged traversal bodies: random traversal and fallback bodies run
   through [Exec.run_plan] and through the value-interpreter oracle
   ({!Oracle}) must agree bit for bit at 1, 2 and 4 domains, a warmed
   forward pass must allocate nothing per edge, and a warmed pass that
   evaluates reductions once per compact pair must reuse its scratch. *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Engine = Hector_gpu.Engine
module Ir = Hector_core.Inter_ir
module Ts = Hector_core.Traversal_spec
module Plan = Hector_core.Plan
module Traversal_passes = Hector_core.Traversal_passes
module Mat = Hector_core.Materialization
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Graph_ctx = Hector_runtime.Graph_ctx
module Models = Hector_models.Model_defs
module Gs = Hector_core.Gemm_spec
module Ds = Hector_graph.Datasets
module Sampler = Hector_graph.Sampler

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

(* --- the random program space ---------------------------------------- *)

let dim = 4

(* Plan buffers every body may touch: (name, space, columns).  The [d:]
   names read as upstream gradients, which is what lets accumulations
   through them run once per compact pair. *)
let buffers =
  [
    ("hn", Mat.Rows_nodes, dim);
    ("sn", Mat.Rows_nodes, 1);
    ("on", Mat.Rows_nodes, dim);
    ("an", Mat.Rows_nodes, 1);
    ("he", Mat.Rows_edges, dim);
    ("se", Mat.Rows_edges, 1);
    ("oe", Mat.Rows_edges, dim);
    ("ze", Mat.Rows_edges, 1);
    ("cs", Mat.Rows_compact_src, dim);
    ("d:cs", Mat.Rows_compact_src, dim);
    ("cd", Mat.Rows_compact_dst, dim);
    ("d:cd", Mat.Rows_compact_dst, 1);
  ]

let spaces =
  List.map (fun (name, space, _) -> (((if space = Mat.Rows_nodes then `Node else `Edge), name), space)) buffers

(* The buffers are bound by hand, not allocated from the plan, so the
   program declares them as inputs: that is where pricing finds their
   widths ([spaces] gives the compact ones their rows). *)
let decls =
  List.map
    (fun (name, space, dim) ->
      if space = Mat.Rows_nodes then Ir.Node_input { name; dim } else Ir.Edge_input { name; dim })
    buffers
  @ [
    Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Ws"; slice = Ir.By_src_ntype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Wd"; slice = Ir.By_dst_ntype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Wsh"; slice = Ir.Shared; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Wn"; slice = Ir.By_ntype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "V"; slice = Ir.Shared; rows = dim; cols = 1 };
    Ir.Weight_vec { name = "a"; slice = Ir.By_etype; dim };
    Ir.Weight_vec { name = "as"; slice = Ir.By_src_ntype; dim };
    Ir.Weight_vec { name = "ad"; slice = Ir.By_dst_ntype; dim };
    Ir.Weight_vec { name = "ash"; slice = Ir.Shared; dim };
    Ir.Weight_vec { name = "b"; slice = Ir.By_dst_ntype; dim = 1 };
  ]

let opaque : (string * Exec.opaque_fn) list =
  [
    ( "tanh",
      function
      | [ Exec.Scalar s ] -> Exec.Scalar (Float.tanh s)
      | [ Exec.Vector v ] -> Exec.Vector (Array.map Float.tanh v)
      | _ -> invalid_arg "tanh" );
  ]

type shape = S | V

let pick rs l = List.nth l (Random.State.int rs (List.length l))

let binop_of rs = pick rs [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div ]

let unop_of rs =
  pick rs [ Ir.Exp; Ir.Neg; Ir.Reciprocal; Ir.Leaky_relu; Ir.Relu; Ir.Rsqrt; Ir.Leaky_relu_grad; Ir.Relu_grad ]

(* Contents with exact zeros, negative zeros and the odd NaN mixed in, so
   the [xi <> 0.0] skips, the signed-zero rules and NaN propagation are
   exercised. *)
let random_value rs =
  match Random.State.int rs 40 with
  | 0 | 1 | 2 | 3 -> 0.0
  | 4 | 5 | 6 | 7 -> -0.0
  | 8 -> Float.nan
  | _ -> Random.State.float rs 4.0 -. 2.0

(* A reduction whose operands are anchored on one side of the edge:
   that endpoint's features or compact rows, against weights sliced by
   relation, by that endpoint's type or shared.  The executor evaluates
   such a reduction once per compact pair, unless the pass writes what it
   reads.  One in five mixes in the other side's weight or, in a
   node-gather sweep, a node-typed one, and some operands carry a
   constant: those must not be hoisted. *)
let anchored rs strategy shape =
  let side = pick rs [ `Src; `Dst ] in
  let row () =
    match side with
    | `Src -> pick rs [ Ir.Feature (Ir.Src, "hn"); Ir.Data (Ir.Cur_edge, "cs"); Ir.Data (Ir.Cur_edge, "d:cs") ]
    | `Dst -> pick rs [ Ir.Feature (Ir.Dst, "hn"); Ir.Data (Ir.Cur_edge, "cd") ]
  in
  let mixed = Random.State.int rs 5 = 0 in
  let other = if strategy = Ts.Node_gather then [ "Wn" ] else [] in
  let mat () =
    let own = match side with `Src -> [ "W"; "Ws"; "Wsh" ] | `Dst -> [ "W"; "Wd"; "Wsh" ] in
    let w = pick rs (if mixed then (match side with `Src -> "Wd" | `Dst -> "Ws") :: other else own) in
    let slice =
      match w with
      | "W" -> Ir.By_etype
      | "Ws" -> Ir.By_src_ntype
      | "Wd" -> Ir.By_dst_ntype
      | "Wn" -> Ir.By_ntype
      | _ -> Ir.Shared
    in
    Ir.Weight (w, slice)
  in
  let vec () =
    match (side, mixed) with
    | `Src, false -> pick rs [ Ir.Weight ("a", Ir.By_etype); Ir.Weight ("as", Ir.By_src_ntype); Ir.Weight ("ash", Ir.Shared) ]
    | `Dst, false -> pick rs [ Ir.Weight ("a", Ir.By_etype); Ir.Weight ("ad", Ir.By_dst_ntype); Ir.Weight ("ash", Ir.Shared) ]
    | `Src, true -> Ir.Weight ("ad", Ir.By_dst_ntype)
    | `Dst, true -> Ir.Weight ("as", Ir.By_src_ntype)
  in
  let v () =
    match Random.State.int rs 4 with
    | 0 -> Ir.Linear (row (), mat ())
    | 1 -> Ir.Linear_t (row (), mat ())
    | 2 -> Ir.Binop (pick rs [ Ir.Add; Ir.Mul ], row (), Ir.Const 0.5)
    | _ -> row ()
  in
  match shape with
  | S -> (
      match Random.State.int rs 3 with
      | 0 -> Ir.Inner (v (), vec ())
      | 1 -> Ir.Inner (row (), v ())
      | _ -> Ir.Linear (v (), Ir.Weight ("V", Ir.Shared)))
  | V -> (
      match Random.State.int rs 3 with
      | 0 -> Ir.Linear (v (), mat ())
      | 1 -> Ir.Linear_t (v (), mat ())
      | _ -> Ir.Linear (Ir.Linear_t (row (), mat ()), mat ()))

(* A random expression of [shape] legal in a body swept by [strategy];
   [defined] lists the register locals assigned so far. *)
let rec gen_expr rs strategy defined depth shape =
  let edges = strategy <> Ts.Node_map and node = strategy <> Ts.Edge_parallel in
  let sub = gen_expr rs strategy defined (depth - 1) in
  let read () =
    let local n = if List.mem n defined then [ Ir.Data (Ir.Cur_edge, n) ] else [] in
    match shape with
    | S ->
        (if edges then
           [
             Ir.Data (pick rs [ Ir.Src; Ir.Dst ], "sn");
             Ir.Feature (Ir.Cur_edge, "se");
             Ir.Data (Ir.Cur_edge, "d:cd");
             Ir.Weight ("b", Ir.By_dst_ntype);
           ]
         else [])
        @ (if node then [ Ir.Data (Ir.Cur_node, "sn") ] else [])
        @ [ Ir.Const (pick rs [ 1.5; -0.0; 0.0; -2.0 ]) ]
        @ local "t1"
    | V ->
        (if edges then
           [
             Ir.Feature (pick rs [ Ir.Src; Ir.Dst ], "hn");
             Ir.Data (Ir.Cur_edge, "he");
             Ir.Data (Ir.Cur_edge, pick rs [ "cs"; "cd"; "d:cs" ]);
             Ir.Weight ("a", Ir.By_etype);
           ]
         else [])
        @ (if node then [ Ir.Feature (Ir.Cur_node, "hn") ] else [])
        @ local "t0"
  in
  let weight () =
    pick rs
      ((if edges then [ Ir.Weight ("W", Ir.By_etype); Ir.Weight ("Ws", Ir.By_src_ntype) ] else [])
      @ if node then [ Ir.Weight ("Wn", Ir.By_ntype) ] else [])
  in
  if depth <= 0 || Random.State.int rs 4 = 0 then pick rs (read ())
  else if edges && Random.State.int rs 5 = 0 then anchored rs strategy shape
  else
    match (shape, Random.State.int rs 6) with
    | S, 0 -> Ir.Slice (sub V, Random.State.int rs dim, 1)
    | S, 1 -> Ir.Inner (sub V, sub V)
    | S, 2 -> Ir.Linear (sub V, Ir.Weight ("V", Ir.Shared))
    | S, 3 -> Ir.Binop (binop_of rs, sub S, sub S)
    | S, _ -> Ir.Unop (unop_of rs, sub S)
    | V, 0 -> Ir.Linear (sub V, weight ())
    | V, 1 -> Ir.Linear_t (sub V, weight ())
    | V, 2 -> Ir.Slice (Ir.Concat (sub V, sub V), Random.State.int rs (dim + 1), dim)
    | V, 3 -> Ir.Binop (binop_of rs, sub V, sub V)
    | V, 4 -> (
        match Random.State.int rs 2 with
        | 0 -> Ir.Binop (binop_of rs, sub S, sub V)
        | _ -> Ir.Binop (binop_of rs, sub V, sub S))
    | V, _ -> Ir.Unop (unop_of rs, sub V)

(* A random statement body.  Every body writes a [-0.0] through a plain
   assignment, which must land as [+0.0]. *)
let gen_body rs strategy ~fallback =
  let defined = ref [] in
  let e shape = gen_expr rs strategy !defined 3 shape in
  let value shape =
    if fallback && Random.State.bool rs then Ir.Opaque ("tanh", [ e shape ]) else e shape
  in
  (* a pointwise root of any operator; scalars broadcast from either side *)
  let root shape =
    let sub = gen_expr rs strategy !defined 2 in
    match (shape, Random.State.int rs 4) with
    | _, 0 -> Ir.Unop (unop_of rs, sub shape)
    | S, _ | V, 1 -> Ir.Binop (binop_of rs, sub shape, sub shape)
    | V, 2 -> Ir.Binop (binop_of rs, sub S, sub V)
    | V, _ -> Ir.Binop (binop_of rs, sub V, sub S)
  in
  let self_broadcast ent n =
    let own = Ir.Slice (Ir.Data (ent, n), Random.State.int rs dim, 1) in
    let x = if Random.State.bool rs then Ir.Binop (binop_of rs, e V, own) else Ir.Binop (binop_of rs, own, e V) in
    if Random.State.bool rs then Ir.Assign (ent, n, x) else Ir.Accumulate (ent, n, x)
  in
  let stmt () =
    let edge_stmts () =
      [
        (fun () -> Ir.Assign (Ir.Cur_edge, "oe", value V));
        (fun () -> Ir.Accumulate (Ir.Cur_edge, "oe", value V));
        (fun () -> Ir.Accumulate (Ir.Dst, "on", value V));
        (fun () -> Ir.Assign (Ir.Dst, "on", value V));
        (fun () -> Ir.Accumulate (pick rs [ Ir.Src; Ir.Dst ], "an", value S));
        (* pair-local on the compact layout *)
        (fun () ->
          let msg = Ir.Linear (Ir.Feature (Ir.Src, "hn"), Ir.Weight ("W", Ir.By_etype)) in
          Ir.Assign (Ir.Cur_edge, "cs", Ir.Binop (binop_of rs, msg, Ir.Weight ("a", Ir.By_etype))));
        (fun () ->
          Ir.Accumulate (Ir.Src, "an", Ir.Inner (Ir.Data (Ir.Cur_edge, "d:cs"), Ir.Feature (Ir.Src, "hn"))));
        (fun () ->
          Ir.Accumulate
            (Ir.Dst, "on", Ir.Binop (Ir.Mul, Ir.Data (Ir.Cur_edge, "d:cd"), Ir.Feature (Ir.Dst, "hn"))));
        (fun () -> Ir.Grad_weight { name = "W"; x = e V; dy = Ir.Data (Ir.Cur_edge, "d:cs") });
        (* a per-edge accumulation into compact rows followed by a read of
           them splits the body into passes *)
        (fun () -> Ir.Accumulate (Ir.Cur_edge, "cd", value V));
        (fun () -> Ir.Assign (Ir.Cur_edge, "oe", Ir.Binop (Ir.Add, Ir.Data (Ir.Cur_edge, "cd"), e V)));
        (fun () -> Ir.Grad_weight { name = "W"; x = e V; dy = e V });
        (fun () -> Ir.Grad_weight { name = "a"; x = e V; dy = e S });
        (* pointwise roots stored straight into compact rows, per edge *)
        (fun () -> Ir.Assign (Ir.Cur_edge, pick rs [ "cs"; "cd" ], root V));
        (fun () -> Ir.Accumulate (Ir.Cur_edge, pick rs [ "cs"; "cd" ], root V));
        (* a write to what pair-invariant reductions read: none of them
           may then run before the sweep *)
        (fun () -> Ir.Accumulate (pick rs [ Ir.Src; Ir.Dst ], "hn", value V));
        (fun () -> Ir.Assign (Ir.Cur_edge, "cs", e V));
        (* a scalar broadcast out of the row being written *)
        (fun () -> self_broadcast (pick rs [ Ir.Dst; Ir.Src ]) "on");
        (fun () -> self_broadcast Ir.Cur_edge "oe");
      ]
    and node_stmts () =
      [
        (fun () -> self_broadcast Ir.Cur_node "on");
        (fun () -> Ir.Assign (Ir.Cur_node, "on", value V));
        (fun () -> Ir.Accumulate (Ir.Cur_node, "an", value S));
        (fun () -> Ir.Accumulate (Ir.Cur_node, "on", value V));
        (fun () -> Ir.Grad_weight { name = "Wn"; x = e V; dy = e V });
      ]
    and local_stmts () =
      (* locals are single-assignment wherever passes may split (the
         split re-runs every definition of a local a later pass reads);
         node-map and fallback bodies never split, so they redefine *)
      let free n = fallback || strategy = Ts.Node_map || not (List.mem n !defined) in
      (if free "t0" then
         [ (fun () -> Ir.Assign (Ir.Cur_edge, "t0", value V)); (fun () -> Ir.Assign (Ir.Cur_edge, "t0", root V)) ]
       else [])
      @
      if free "t1" then
        [ (fun () -> Ir.Assign (Ir.Cur_edge, "t1", value S)); (fun () -> Ir.Assign (Ir.Cur_edge, "t1", root S)) ]
      else []
    in
    let choices =
      local_stmts ()
      @ (match strategy with
        | Ts.Edge_parallel -> edge_stmts ()
        | Ts.Node_gather -> edge_stmts () @ node_stmts ()
        | Ts.Node_map -> node_stmts ())
    in
    let st = (pick rs choices) () in
    (match st with
    | Ir.Assign (Ir.Cur_edge, (("t0" | "t1") as n), _) -> defined := n :: !defined
    | _ -> ());
    st
  in
  let zero =
    if strategy = Ts.Node_map then Ir.Assign (Ir.Cur_node, "an", Ir.Const (-0.0))
    else Ir.Assign (Ir.Cur_edge, "ze", Ir.Const (-0.0))
  in
  (* A local defined in the first pass and read after the split, so the
     second pass re-defines it. *)
  let split () =
    let def = Ir.Assign (Ir.Cur_edge, "t0", e V) in
    defined := "t0" :: !defined;
    let cd = Ir.Data (Ir.Cur_edge, "cd") and t0 = Ir.Data (Ir.Cur_edge, "t0") in
    [
      def;
      Ir.Accumulate (Ir.Cur_edge, "cd", e V);
      Ir.Assign (Ir.Cur_edge, "oe", Ir.Binop (Ir.Add, cd, t0));
      Ir.Accumulate (Ir.Dst, "on", Ir.Binop (Ir.Mul, t0, e V));
    ]
  in
  let split = if strategy <> Ts.Node_map && Random.State.int rs 3 = 0 then split () else [] in
  let body = List.init (2 + Random.State.int rs 6) (fun _ -> stmt ()) in
  (zero :: split) @ body

let gen_step rs kid =
  let strategy = pick rs [ Ts.Edge_parallel; Ts.Node_gather; Ts.Node_map ] in
  if Random.State.int rs 4 = 0 then
    Plan.Fallback
      { Plan.kid; description = "opaque"; strategy; body = gen_body rs strategy ~fallback:true; passes = [] }
  else
    Plan.Traversal
      {
        Ts.kid;
        strategy;
        body = gen_body rs strategy ~fallback:false;
        locals = [ "t0"; "t1" ];
        schedule = Ts.default_schedule;
        passes = [];
      }

(* A hand-built plan over the buffers and weights above, its passes
   recorded as the compiler records them. *)
let oracle_plan steps =
  Traversal_passes.record
    {
      Plan.name = "oracle";
      layout = Hector_core.Layout.default;
      program = { Ir.name = "oracle"; decls; body = []; outputs = [] };
      buffers = [];
      steps;
      spaces;
      memory = Hector_core.Buffer_plan.analyze ~buffers:[] ~steps;
    }

let gen_plan rs =
  let steps = List.init (1 + Random.State.int rs 3) (gen_step rs) in
  let steps =
    match steps with
    | a :: b :: rest when Random.State.bool rs -> Plan.Fused { Plan.fid = 0; members = [ a; b ] } :: rest
    | s -> s
  in
  oracle_plan steps

(* --- one case -------------------------------------------------------- *)

let graph seed =
  Gen.generate
    {
      Gen.name = "oracle";
      num_ntypes = 3;
      num_etypes = 5;
      num_nodes = 100;
      num_edges = 400;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let random_tensor rs shape =
  let t = T.zeros shape in
  let data, _ = T.storage t in
  Array.iteri (fun i _ -> data.(i) <- random_value rs) data;
  t

(* Bit equality; NaN payloads are not part of the contract. *)
let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (Float.is_nan a && Float.is_nan b)

let same_tensor a b =
  T.shape a = T.shape b && Array.for_all2 same_bits (T.to_flat_array a) (T.to_flat_array b)

(* [plan_of]'s plan on seeded random inputs through [Exec.run_plan] and
   through the oracle at 1, 2 and 4 domains: every buffer and weight
   gradient must agree bit for bit. *)
let agrees seed plan_of =
  let rs = Random.State.make [| seed |] in
  let g = graph (seed mod 7) in
  let ctx = Graph_ctx.create g in
  let nnt = G.num_ntypes g and net = G.num_etypes g in
  let inputs =
    List.map
      (fun (name, space, d) -> (name, space, d, random_tensor rs [| Graph_ctx.rows_of_space ctx space; d |]))
      buffers
  in
  let w = random_tensor rs [| net; dim; dim |] in
  (* an infinite weight row: dropping a zero skip turns 0 * inf into nan *)
  (T.storage w |> fst).(0) <- infinity;
  let weights =
    [
      ("W", w);
      ("Ws", random_tensor rs [| nnt; dim; dim |]);
      ("Wd", random_tensor rs [| nnt; dim; dim |]);
      ("Wsh", random_tensor rs [| 1; dim; dim |]);
      ("Wn", random_tensor rs [| nnt; dim; dim |]);
      ("V", random_tensor rs [| 1; dim; 1 |]);
      ("a", random_tensor rs [| net; dim |]);
      ("as", random_tensor rs [| nnt; dim |]);
      ("ad", random_tensor rs [| nnt; dim |]);
      ("ash", random_tensor rs [| 1; dim |]);
      ("b", random_tensor rs [| nnt; 1 |]);
    ]
  in
  let plan = plan_of rs in
  let fresh_env () =
    let env = Env.create () in
    List.iter
      (fun (name, space, d, t) -> Env.add env ~name { Env.tensor = T.copy t; space; dim = d; alloc = None })
      inputs;
    List.iter (fun (name, t) -> Env.add_weight env ~name t) weights;
    env
  in
  let grads env = List.sort compare (Env.weight_grads env) in
  List.for_all
    (fun domains ->
      with_domains domains (fun () ->
          let staged = fresh_env () and oracle = fresh_env () in
          let engine = Engine.create () in
          Exec.run_plan (Exec.create ~opaque ~engine ~ctx ~env:staged ()) plan;
          Oracle.run ~opaque ~ctx ~env:oracle plan;
          let ok =
            List.for_all
              (fun (name, _, _) -> same_tensor (Env.find staged name).Env.tensor (Env.find oracle name).Env.tensor)
              buffers
            && List.length (grads staged) = List.length (grads oracle)
            && List.for_all2
                 (fun (n1, g1) (n2, g2) -> String.equal n1 n2 && same_tensor g1 g2)
                 (grads staged) (grads oracle)
          in
          if not ok then
            Format.eprintf "seed %d, %d domains: staged and oracle differ on@.%a@." seed domains
              Plan.pp plan;
          ok))
    [ 1; 2; 4 ]

let prop_staged_matches_oracle =
  QCheck.Test.make ~name:"staged bodies == value interpreter, bitwise, 1/2/4 domains" ~count:80
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed -> agrees seed gen_plan)

(* --- the split rule, pinned ------------------------------------------ *)

(* Three edge-parallel bodies whose passes the record must split (or not)
   exactly so:
   - a per-edge and then a pair-local statement accumulating the same
     [Dst] row: hoisting the pair loop would run it first, so the
     pair-local statement starts a second pass;
   - a per-edge statement writing a node row through [Src] and then a
     pair-local statement reading it: a second pass, and a sweep that
     writes source rows never runs in destination chunks;
   - a pair-local assign of a compact row and a per-edge read of it: one
     pass, the pair loop completing the rows before the sweep reads them.
   Each then runs bitwise like the oracle at 1, 2 and 4 domains. *)
let pinned_bodies =
  let dcd_hn = Ir.Binop (Ir.Mul, Ir.Data (Ir.Cur_edge, "d:cd"), Ir.Feature (Ir.Dst, "hn")) in
  let an_dcs =
    Ir.Binop (Ir.Mul, Ir.Data (Ir.Src, "an"), Ir.Inner (Ir.Data (Ir.Cur_edge, "d:cs"), Ir.Feature (Ir.Src, "hn")))
  in
  let msg = Ir.Binop (Ir.Add, Ir.Linear (Ir.Feature (Ir.Src, "hn"), Ir.Weight ("W", Ir.By_etype)), Ir.Weight ("a", Ir.By_etype)) in
  let a1 = Ir.Accumulate (Ir.Dst, "on", Ir.Feature (Ir.Src, "hn")) and a2 = Ir.Accumulate (Ir.Dst, "on", dcd_hn) in
  let b1 = Ir.Accumulate (Ir.Src, "an", Ir.Data (Ir.Cur_edge, "se")) and b2 = Ir.Accumulate (Ir.Src, "sn", an_dcs) in
  let c1 = Ir.Assign (Ir.Cur_edge, "cs", msg)
  and c2 = Ir.Assign (Ir.Cur_edge, "oe", Ir.Binop (Ir.Add, Ir.Data (Ir.Cur_edge, "cs"), Ir.Data (Ir.Cur_edge, "he"))) in
  let pass ?(pairs = []) ?(parallel_safe = true) sweep =
    { Ts.pair_loops = List.map (fun (side, sts) -> { Ts.side; items = List.map (fun s -> Ts.Pair_stmt s) sts }) pairs; sweep; parallel_safe }
  in
  [
    ([ a1; a2 ], [ pass [ a1 ]; pass ~pairs:[ (`Dst, [ a2 ]) ] [] ]);
    ([ b1; b2 ], [ pass ~parallel_safe:false [ b1 ]; pass ~pairs:[ (`Src, [ b2 ]) ] [] ]);
    ([ c1; c2 ], [ pass ~pairs:[ (`Src, [ c1 ]) ] [ c2 ] ]);
  ]

let test_split_rule () =
  let plan _ =
    oracle_plan
      (List.mapi
         (fun kid (body, _) ->
           Plan.Traversal
             { Ts.kid; strategy = Ts.Edge_parallel; body; locals = []; schedule = Ts.default_schedule; passes = [] })
         pinned_bodies)
  in
  List.iteri
    (fun kid step ->
      match step with
      | Plan.Traversal t ->
          if t.Ts.passes <> snd (List.nth pinned_bodies kid) then
            Alcotest.failf "traversal_%d: unexpected passes@.%a" kid Ts.pp t
      | _ -> ())
    (plan ()).Plan.steps;
  Alcotest.(check bool) "executor == oracle, bitwise, 1/2/4 domains" true
    (List.for_all (fun seed -> agrees seed plan) [ 1; 2; 3 ])

(* --- edge-row gathers on duplicate-heavy graphs ---------------------- *)

(* A typed linear that gathers into edge rows computes one row per
   (relation, endpoint) pair and copies it to the pair's other edges.
   On the FB15k replica (474 relations over 211 nodes: most source rows
   repeat) and on a sampled AM block, every such output must equal the
   per-edge textbook loop bit for bit, read right after its step. *)

let rec edge_gathers = function
  | Plan.Gemm ({ Gs.task = Gs.Edge_linear { out_space = Mat.Rows_edges; _ }; _ } as spec) ->
      [ spec ]
  | Plan.Fused f -> List.concat_map edge_gathers f.Plan.members
  | _ -> []

(* Edge [e]'s row: [x(node e) · W[etype e]] summed from 0.0 with k
   ascending, skipping zero coefficients, then times its scalar. *)
let check_edge_gather ~name env (g : G.t) (spec : Gs.t) =
  match spec.Gs.task with
  | Gs.Edge_linear { side; input; weight; output; transpose; per_row_scalar; _ } ->
      let x = T.to_2d (Env.find env (Gs.operand_name input)).Env.tensor in
      let w = Env.weight env weight and out = T.to_2d (Env.find env output).Env.tensor in
      let scale = Option.map (fun s -> T.to_2d (Env.find env s).Env.tensor) per_row_scalar in
      let k = Array.length x.(0) in
      let nodes = match side with `Src -> g.G.src | `Dst -> g.G.dst in
      Array.iteri
        (fun e row ->
          Array.iteri
            (fun j got ->
              let acc = ref 0.0 and r = g.G.etype.(e) in
              for kk = 0 to k - 1 do
                let a = x.(nodes.(e)).(kk) in
                if a <> 0.0 then
                  acc := !acc +. (a *. T.get w (if transpose then [| r; j; kk |] else [| r; kk; j |]))
              done;
              let want = match scale with Some s -> !acc *. s.(e).(0) | None -> !acc in
              if Int64.bits_of_float want <> Int64.bits_of_float got then
                Alcotest.failf "%s %s: edge %d col %d is %h, textbook %h" name output e j got want)
            row)
        out
  | _ -> ()

(* A typed linear times a per-edge scalar, which lowering fuses into the
   GEMM's store: copies must land before each row takes its own factor. *)
let scaled_linear ~in_dim ~out_dim =
  {
    Ir.name = "scaled";
    decls =
      [
        Ir.Node_input { name = "h"; dim = in_dim };
        Ir.Edge_input { name = "s"; dim = 1 };
        Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = in_dim; cols = out_dim };
      ];
    body =
      [
        Ir.For_each
          ( Ir.Edges,
            [
              Ir.Assign (Ir.Cur_edge, "sc", Ir.Feature (Ir.Cur_edge, "s"));
              Ir.Assign
                ( Ir.Cur_edge,
                  "z",
                  Ir.Binop
                    ( Ir.Mul,
                      Ir.Linear (Ir.Feature (Ir.Src, "h"), Ir.Weight ("W", Ir.By_etype)),
                      Ir.Data (Ir.Cur_edge, "sc") ) );
              Ir.Accumulate (Ir.Dst, "out", Ir.Data (Ir.Cur_edge, "z"));
            ] );
      ];
    outputs = [ "out" ];
  }

let test_edge_gathers_textbook () =
  let fb15k = Ds.load ~seed:1 (Ds.find "fb15k") and am = Ds.load ~seed:1 (Ds.find "am") in
  let block =
    (Sampler.sample ~seed:2 ~graph:am ~seeds:[| 3; 70; 800; 1500 |] ~fanout:8 ~hops:2 ()).Sampler.graph
  in
  let checked = ref 0 and scaled = ref 0 in
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun model ->
          let program =
            if model = "scaled" then scaled_linear ~in_dim:16 ~out_dim:8
            else Models.by_name model ~in_dim:16 ~out_dim:8 ()
          in
          let compiled =
            Compiler.compile ~options:(Compiler.options_of_flags ~compact:false ~fusion:false ()) program
          in
          let plan = compiled.Compiler.forward in
          let steps = Array.of_list plan.Plan.steps in
          List.iter
            (fun d ->
              with_domains d (fun () ->
                  let exec = Session.exec (Session.create ~graph:g compiled) in
                  Exec.run_plan exec plan
                    ~on_step:(fun i ->
                      List.iter
                        (fun spec ->
                          incr checked;
                          (match spec.Gs.task with
                          | Gs.Edge_linear { per_row_scalar = Some _; _ } -> incr scaled
                          | _ -> ());
                          check_edge_gather
                            ~name:(Printf.sprintf "%s %s-U (%d domains)" gname model d)
                            exec.Exec.env g spec)
                        (edge_gathers steps.(i)))))
            [ 1; 2 ])
        [ "rgcn"; "hgt"; "rgat"; "scaled" ])
    [ ("fb15k", fb15k); ("am block", block) ];
  Alcotest.(check bool) "edge gathers checked" true (!checked > 0 && !scaled > 0)

(* --- allocation ------------------------------------------------------- *)

(* One warmed forward run allocates the same on a graph with 4x the edges,
   and on one with 400 relations instead of 6 at an equal edge count:
   nothing in the traversal inner loops allocates, and a GEMM step is one
   call whatever its relation count. *)
let test_no_per_edge_allocation () =
  with_domains 1 (fun () ->
      let graph ?(etypes = 6) edges =
        Gen.generate
          {
            Gen.name = "alloc";
            num_ntypes = 3;
            num_etypes = etypes;
            num_nodes = 400;
            num_edges = edges;
            compaction_target = 0.5;
            scale = 1.0;
            seed = 3;
          }
      in
      let words (model, compact, fusion) g =
        let compiled =
          Compiler.compile
            ~options:(Compiler.options_of_flags ~compact ~fusion ())
            (Models.by_name model ~in_dim:16 ~out_dim:8 ())
        in
        let session = Session.create ~graph:g compiled in
        let exec = Session.exec session and plan = compiled.Compiler.forward in
        Exec.run_plan exec plan;
        Exec.run_plan exec plan;
        let before = Gc.minor_words () in
        Exec.run_plan exec plan;
        Gc.minor_words () -. before
      in
      let check_close what (model, _, _) a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s, %s: %.0f vs %.0f minor words" model what a b)
          true
          (Float.abs (b -. a) < 1000.0)
      in
      List.iter
        (fun cfg ->
          check_close "1000 vs 4000 edges" cfg (words cfg (graph 1000)) (words cfg (graph 4000));
          check_close "6 vs 400 relations" cfg
            (words cfg (graph 2000))
            (words cfg (graph ~etypes:400 2000)))
        [ ("rgcn", false, false); ("hgt", false, false); ("rgat", true, true) ])

(* A warmed RGAT C+F training step's two [run_plan]s on the AM replica,
   whose traversals evaluate their pair-invariant inner products once per
   compact pair.  The pre-pass scratch is kept at its high-water size:
   later runs allocate no host tensor, nothing straight on the major heap
   (where a fresh per-pair buffer would land), and no more minor words
   than the run before — read with [Gc.minor_words], which is exact:
   [Gc.counters]' minor count jumps by a whole minor heap when a
   collection falls inside the run. *)
let test_pair_prepass_steady_state () =
  with_domains 1 (fun () ->
      let g = Ds.load ~seed:1 (Ds.find "am") in
      let compiled =
        Compiler.compile
          ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:true ())
          (Models.by_name "rgat" ~in_dim:16 ~out_dim:8 ())
      in
      let session = Session.create ~graph:g compiled in
      let exec = Session.exec session and fwd = compiled.Compiler.forward in
      let bwd = Option.get compiled.Compiler.backward in
      let labels = Array.init g.G.num_nodes (fun i -> i mod 8) in
      ignore (Hector_runtime.Train.loss_and_grads ~exec compiled ~labels);
      let run () =
        let tensors = T.allocation_count () and minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
        Exec.run_plan ~free_temps:false exec fwd;
        Exec.run_plan exec bwd;
        Exec.free_temp_buffers exec fwd;
        let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
        (T.allocation_count () - tensors, major1 -. promoted1 -. (major0 -. promoted0), minor1 -. minor0)
      in
      let _ = run () in
      let t2, m2, w2 = run () in
      let t3, m3, w3 = run () in
      Alcotest.(check (pair int int)) "host tensors allocated by runs 2 and 3" (0, 0) (t2, t3);
      Alcotest.(check (pair (float 0.0) (float 0.0))) "major-heap words of runs 2 and 3" (0.0, 0.0) (m2, m3);
      Alcotest.(check bool) (Printf.sprintf "run 3 minor words %.0f <= run 2 %.0f" w3 w2) true (w3 <= w2))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_staged_matches_oracle;
    Alcotest.test_case "no per-edge allocation" `Quick test_no_per_edge_allocation;
    Alcotest.test_case "pair pre-pass steady state" `Quick test_pair_prepass_steady_state;
    Alcotest.test_case "edge-row gathers == per-edge textbook loop" `Quick test_edge_gathers_textbook;
    Alcotest.test_case "split rule: pair loops and sweeps" `Quick test_split_rule;
  ]
