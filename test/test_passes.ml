(* The compile-time pass record: what it decides for the custom model of
   examples/custom_model.ml and for RGAT, how the printed CUDA shows it,
   and that a sweep the record marks parallel computes the same bits at
   every domain count. *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module Gen = Hector_graph.Generator
module Ir = Hector_core.Inter_ir
module Ts = Hector_core.Traversal_spec
module Plan = Hector_core.Plan
module Codegen = Hector_core.Codegen
module Compiler = Hector_core.Compiler
module Models = Hector_models.Model_defs
module Session = Hector_runtime.Session

open Ir

(* The "relational gated sum" of examples/custom_model.ml. *)
let gated_sum ~dim =
  {
    name = "gated_sum";
    decls =
      [
        Node_input { name = "h"; dim };
        Weight_mat { name = "W"; slice = By_etype; rows = dim; cols = dim };
        Weight_vec { name = "gate"; slice = By_etype; dim };
        Weight_mat { name = "W0"; slice = Shared; rows = dim; cols = dim };
      ];
    body =
      [
        For_each (Edges, [ Assign (Cur_edge, "msg", Linear (Feature (Src, "h"), Weight ("W", By_etype))) ]);
        For_each
          ( Edges,
            [
              Assign
                (Cur_edge, "score", Unop (Leaky_relu, Inner (Weight ("gate", By_etype), Data (Cur_edge, "msg"))));
            ] );
      ]
      @ Models.edge_softmax ~pre:"score" ~sum:"score_sum" ~out:"alpha"
      @ [
          For_each
            ( Nodes,
              [
                Assign (Cur_node, "agg", Const 0.0);
                For_each
                  (Incoming, [ Accumulate (Cur_node, "agg", Binop (Mul, Data (Cur_edge, "msg"), Data (Cur_edge, "alpha"))) ]);
              ] );
          For_each (Nodes, [ Assign (Cur_node, "self", Linear (Feature (Cur_node, "h"), Weight ("W0", Shared))) ]);
          For_each
            (Nodes, [ Assign (Cur_node, "out", Unop (Relu, Binop (Add, Data (Cur_node, "agg"), Data (Cur_node, "self")))) ]);
        ];
    outputs = [ "out" ];
  }

let compile ?(training = true) ~compact ~fusion program =
  Compiler.compile ~options:(Compiler.options_of_flags ~training ~compact ~fusion ()) program

let traversal (plan : Plan.t) kid =
  match
    List.find_map
      (function Plan.Traversal t when t.Ts.kid = kid -> Some t | _ -> None)
      (Plan.flatten_steps plan)
  with
  | Some t -> t
  | None -> Alcotest.failf "%s has no traversal_%d" plan.Plan.name kid

(* --- the record ---------------------------------------------------- *)

(* The compact forward's score traversal: the gate score and its
   exponential are constant on (etype, src) pairs, so they move to the
   source pair loop, and the sweep left over — a destination
   accumulation of a compact row it only reads — is safe in destination
   chunks.  (While those assigns sat in the sweep, it wrote compact-src
   rows and had to run sequentially.) *)
let test_custom_forward_record () =
  let fwd = (compile ~compact:true ~fusion:false (gated_sum ~dim:8)).Compiler.forward in
  match (traversal fwd 0).Ts.passes with
  | [ { Ts.pair_loops = [ { Ts.side = `Src; items = [ Ts.Pair_stmt a; Ts.Pair_stmt b ] } ]; sweep; parallel_safe } ] ->
      let target = function Ir.Assign (Ir.Cur_edge, n, _) -> n | _ -> "(not an edge assign)" in
      Alcotest.(check (list string)) "pair loop" [ "score"; "score_exp" ] [ target a; target b ];
      Alcotest.(check int) "one swept statement" 1 (List.length sweep);
      Alcotest.(check bool) "sweep parallel-safe" true parallel_safe
  | _ -> Alcotest.failf "unexpected record:@.%a" Ts.pp (traversal fwd 0)

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

let bits t = Array.map Int64.bits_of_float (T.to_flat_array t)

(* Its forward output and one step's weight gradients, on the example's
   graph, are the same bits at 1, 2 and 4 domains. *)
let test_custom_parallel_bits () =
  let graph =
    Gen.generate
      {
        Gen.name = "demo";
        num_ntypes = 2;
        num_etypes = 8;
        num_nodes = 300;
        num_edges = 1200;
        compaction_target = 0.4;
        scale = 1.0;
        seed = 9;
      }
  in
  let compiled = compile ~compact:true ~fusion:false (gated_sum ~dim:32) in
  let labels = Array.init graph.Hector_graph.Hetgraph.num_nodes (fun i -> i mod 32) in
  let run domains =
    with_domains domains (fun () ->
        let s = Session.create ~config:{ Session.Config.default with seed = 3 } ~graph compiled in
        let exec = Session.exec s in
        let loss = Hector_runtime.Train.loss_and_grads ~exec compiled ~labels in
        let out = List.map (fun (n, o) -> (n, bits o)) (Session.forward s) in
        let grads =
          List.map (fun (n, g) -> (n, bits g)) (List.sort compare (Hector_runtime.Env.weight_grads exec.Hector_runtime.Exec.env))
        in
        (Int64.bits_of_float loss, out, grads))
  in
  let one = run 1 in
  List.iter
    (fun d -> Alcotest.(check bool) (Printf.sprintf "%d domains == 1 domain, bitwise" d) true (run d = one))
    [ 2; 4 ]

(* --- the printed CUDA ---------------------------------------------- *)

let kernel (plan : Plan.t) kid = Codegen.traversal_kernel ~spaces:plan.Plan.spaces plan.Plan.layout (traversal plan kid)

(* The compact backward's gate traversal: after a sweep that completes
   the compact [d:score_exp] rows, a source pair loop adds the gate's
   weight gradient and the compact gradients once per pair. *)
let custom_backward_kernel =
  {|// traversal instance 2
__global__ void traversal_2(...) {
  // pass 0
  { // sweep, sequential
    int idxEdge = blockIdx.x * blockDim.x + threadIdx.x; // one thread per edge
    // COO adjacency: id retrieval closures are plain subscripts
    const int src = coo_src[idxEdge];   // GetSrcId
    const int dst = coo_dst[idxEdge];   // GetDstId
    const int etype = coo_etype[idxEdge]; // GetEType
    d:score_exp[compact_src_row[idxEdge]] += d:score_sum[dst * d:score_sum_dim + d];
  }
  grid.sync();
  // pass 1
  // src pair loop: once per (etype, src) pair, at its first edge
  for (int idxPair = blockIdx.x * blockDim.x + threadIdx.x; idxPair < num_compact_src_pairs; idxPair += gridDim.x * blockDim.x) {
    int idxEdge = compact_src_rep[idxPair];
    // COO adjacency: id retrieval closures are plain subscripts
    const int src = coo_src[idxEdge];   // GetSrcId
    const int dst = coo_dst[idxEdge];   // GetDstId
    const int etype = coo_etype[idxEdge]; // GetEType
    d:score[compact_src_row[idxEdge]] += (d:score_exp[compact_src_row[idxEdge] * d:score_exp_dim + d] * __expf(score[compact_src_row[idxEdge] * score_dim + d]));
    atomicAdd(&grad_gate[etype], outer(msg[compact_src_row[idxEdge] * msg_dim + d], (d:score[compact_src_row[idxEdge] * d:score_dim + d] * leaky_relu_grad(inner(gate[etype * gate_stride + d], msg[compact_src_row[idxEdge] * msg_dim + d])))));
    d:msg[compact_src_row[idxEdge]] += (gate[etype * gate_stride + d] * (d:score[compact_src_row[idxEdge] * d:score_dim + d] * leaky_relu_grad(inner(gate[etype * gate_stride + d], msg[compact_src_row[idxEdge] * msg_dim + d]))));
  }
}
|}

(* RGAT C+F's attention traversal: both halves of the attention score are
   reductions hoisted into pair scratch, one pair loop per side. *)
let rgat_forward_kernel =
  {|// traversal instance 0
__global__ void traversal_0(...) {
  float reg_attn_pre[DIM]; // local, never materialized
  // pass 0
  // src pair loop: once per (etype, src) pair, at its first edge
  for (int idxPair = blockIdx.x * blockDim.x + threadIdx.x; idxPair < num_compact_src_pairs; idxPair += gridDim.x * blockDim.x) {
    int idxEdge = compact_src_rep[idxPair];
    // COO adjacency: id retrieval closures are plain subscripts
    const int src = coo_src[idxEdge];   // GetSrcId
    const int dst = coo_dst[idxEdge];   // GetDstId
    const int etype = coo_etype[idxEdge]; // GetEType
    pair_scratch_0[idxPair] = inner(h[src * h_dim + d], __att_ul[etype * __att_ul_stride + d]);
  }
  // dst pair loop: once per (etype, dst) pair, at its first edge
  for (int idxPair = blockIdx.x * blockDim.x + threadIdx.x; idxPair < num_compact_dst_pairs; idxPair += gridDim.x * blockDim.x) {
    int idxEdge = compact_dst_rep[idxPair];
    // COO adjacency: id retrieval closures are plain subscripts
    const int src = coo_src[idxEdge];   // GetSrcId
    const int dst = coo_dst[idxEdge];   // GetDstId
    const int etype = coo_etype[idxEdge]; // GetEType
    pair_scratch_1[idxPair] = inner(h[dst * h_dim + d], __att_ur[etype * __att_ur_stride + d]);
  }
  grid.sync(); // pair rows complete
  { // sweep, destination-chunked
    int idxEdge = blockIdx.x * blockDim.x + threadIdx.x; // one thread per edge
    // COO adjacency: id retrieval closures are plain subscripts
    const int src = coo_src[idxEdge];   // GetSrcId
    const int dst = coo_dst[idxEdge];   // GetDstId
    const int etype = coo_etype[idxEdge]; // GetEType
    reg_attn_pre[d] = leaky_relu((pair_scratch_0[compact_src_row[idxEdge]] + pair_scratch_1[compact_dst_row[idxEdge]]));
    attn_pre_exp[idxEdge] = __expf(reg_attn_pre[d]);
    // thread- and warp-level pre-reduction before the atomic
    atomicAdd(&attn_sum[dst], attn_pre_exp[idxEdge * attn_pre_exp_dim + d]);
  }
}
|}

let test_codegen_pair_loops () =
  let c = compile ~compact:true ~fusion:false (gated_sum ~dim:8) in
  Alcotest.(check string) "custom model C backward, traversal_2" custom_backward_kernel
    (kernel (Option.get c.Compiler.backward) 2);
  let r = compile ~training:false ~compact:true ~fusion:true (Models.rgat ~in_dim:8 ~out_dim:8 ()) in
  Alcotest.(check string) "RGAT C+F forward, traversal_0" rgat_forward_kernel (kernel r.Compiler.forward 0)

let suite =
  [
    Alcotest.test_case "custom model: score assigns move to a pair loop" `Quick test_custom_forward_record;
    Alcotest.test_case "custom model: parallel sweep, same bits at 1/2/4" `Quick test_custom_parallel_bits;
    Alcotest.test_case "codegen renders pair loops" `Quick test_codegen_pair_loops;
  ]
