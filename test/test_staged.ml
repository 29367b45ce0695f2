(* Staged traversal bodies: random traversal and fallback bodies run
   through [Exec.run_plan] and through the value-interpreter oracle
   ({!Oracle}) must agree bit for bit at 1, 2 and 4 domains, and a warmed
   forward pass must allocate nothing per edge. *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Engine = Hector_gpu.Engine
module Ir = Hector_core.Inter_ir
module Ts = Hector_core.Traversal_spec
module Plan = Hector_core.Plan
module Mat = Hector_core.Materialization
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Graph_ctx = Hector_runtime.Graph_ctx
module Models = Hector_models.Model_defs

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

let decls =
  [
    Ir.Weight_mat { name = "W"; slice = Ir.By_etype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Ws"; slice = Ir.By_src_ntype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "Wn"; slice = Ir.By_ntype; rows = dim; cols = dim };
    Ir.Weight_mat { name = "V"; slice = Ir.Shared; rows = dim; cols = 1 };
    Ir.Weight_vec { name = "a"; slice = Ir.By_etype; dim };
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

(* Contents with exact zeros and negative zeros mixed in, so the
   [xi <> 0.0] skips and the signed-zero rules are exercised. *)
let random_value rs =
  match Random.State.int rs 10 with
  | 0 | 1 -> 0.0
  | 2 -> -0.0
  | _ -> Random.State.float rs 4.0 -. 2.0

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
  let unop () =
    pick rs
      [ Ir.Exp; Ir.Neg; Ir.Reciprocal; Ir.Leaky_relu; Ir.Relu; Ir.Rsqrt; Ir.Leaky_relu_grad; Ir.Relu_grad ]
  in
  if depth <= 0 || Random.State.int rs 4 = 0 then pick rs (read ())
  else
    match (shape, Random.State.int rs 6) with
    | S, 0 -> Ir.Slice (sub V, Random.State.int rs dim, 1)
    | S, 1 -> Ir.Inner (sub V, sub V)
    | S, 2 -> Ir.Linear (sub V, Ir.Weight ("V", Ir.Shared))
    | S, 3 -> Ir.Binop (binop_of rs, sub S, sub S)
    | S, _ -> Ir.Unop (unop (), sub S)
    | V, 0 -> Ir.Linear (sub V, weight ())
    | V, 1 -> Ir.Linear_t (sub V, weight ())
    | V, 2 -> Ir.Slice (Ir.Concat (sub V, sub V), Random.State.int rs (dim + 1), dim)
    | V, 3 -> Ir.Binop (binop_of rs, sub V, sub V)
    | V, 4 -> (
        match Random.State.int rs 2 with
        | 0 -> Ir.Binop (binop_of rs, sub S, sub V)
        | _ -> Ir.Binop (binop_of rs, sub V, sub S))
    | V, _ -> Ir.Unop (unop (), sub V)

(* A random statement body.  Every body writes a [-0.0] through a plain
   assignment, which must land as [+0.0]. *)
let gen_body rs strategy ~fallback =
  let defined = ref [] in
  let e shape = gen_expr rs strategy !defined 3 shape in
  let value shape =
    if fallback && Random.State.bool rs then Ir.Opaque ("tanh", [ e shape ]) else e shape
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
      ]
    and node_stmts () =
      [
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
      (if free "t0" then [ (fun () -> Ir.Assign (Ir.Cur_edge, "t0", value V)) ] else [])
      @ if free "t1" then [ (fun () -> Ir.Assign (Ir.Cur_edge, "t1", value S)) ] else []
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
    Plan.Fallback { Plan.kid; description = "opaque"; strategy; body = gen_body rs strategy ~fallback:true }
  else
    Plan.Traversal
      {
        Ts.kid;
        strategy;
        body = gen_body rs strategy ~fallback:false;
        locals = [ "t0"; "t1" ];
        schedule = Ts.default_schedule;
      }

let gen_plan rs =
  let steps = List.init (1 + Random.State.int rs 3) (gen_step rs) in
  let steps =
    match steps with
    | a :: b :: rest when Random.State.bool rs -> Plan.Fused { Plan.fid = 0; members = [ a; b ] } :: rest
    | s -> s
  in
  {
    Plan.name = "oracle";
    layout = Hector_core.Layout.default;
    program = { Ir.name = "oracle"; decls; body = []; outputs = [] };
    buffers = [];
    steps;
    spaces = [];
    memory = None;
  }

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

let run_case seed =
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
      ("Wn", random_tensor rs [| nnt; dim; dim |]);
      ("V", random_tensor rs [| 1; dim; 1 |]);
      ("a", random_tensor rs [| net; dim |]);
      ("b", random_tensor rs [| nnt; 1 |]);
    ]
  in
  let plan = gen_plan rs in
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
          Exec.run_plan (Exec.create ~opaque ~planner:false ~engine ~ctx ~env:staged ()) plan;
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
    run_case

(* --- allocation ------------------------------------------------------- *)

(* One warmed forward run allocates the same on a graph with 4x the edges:
   nothing in the traversal inner loops allocates. *)
let test_no_per_edge_allocation () =
  with_domains 1 (fun () ->
      let graph edges =
        Gen.generate
          {
            Gen.name = "alloc";
            num_ntypes = 3;
            num_etypes = 6;
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
      List.iter
        (fun ((model, _, _) as cfg) ->
          let small = words cfg (graph 1000) and large = words cfg (graph 4000) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.0f vs %.0f minor words" model small large)
            true
            (Float.abs (large -. small) < 1000.0))
        [ ("rgcn", false, false); ("rgat", true, true) ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_staged_matches_oracle;
    Alcotest.test_case "no per-edge allocation" `Quick test_no_per_edge_allocation;
  ]
