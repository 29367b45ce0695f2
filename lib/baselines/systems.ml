module G = Hector_graph.Hetgraph

(* the evaluation feature dimension (§4.1) *)
let feature_dim = 64

let d = feature_dim

let fl = float_of_int

(* per-relation edge counts, skipping empty relations *)
let relation_counts g =
  List.filter_map
    (fun r ->
      let _, count = G.edges_of_type g r in
      if count > 0 then Some count else None)
    (List.init (G.num_etypes g) (fun r -> r))

let unsupported fmt = Format.kasprintf (fun s -> raise (Recipe.Unsupported s)) fmt

(* For a HeteroConv-style module, each relation's convolution transforms
   every node of its endpoint types (the module has per-relation weights,
   so nothing can be shared across relations).  Returns, per populated
   relation, (edge count, src-type node count, dst-type node count). *)
let relation_shapes g =
  let mg = g.G.metagraph in
  List.filter_map
    (fun r ->
      let _, count = G.edges_of_type g r in
      if count = 0 then None
      else
        let _, nsrc = G.nodes_of_type g (Hector_graph.Metagraph.src_ntype mg r) in
        let _, ndst = G.nodes_of_type g (Hector_graph.Metagraph.dst_ntype mg r) in
        Some (count, nsrc, ndst))
    (List.init (G.num_etypes g) (fun r -> r))

(* A typed linear implemented by replicating the per-edge weight slice and
   calling bmm(): the replicated stack is both allocated (OOM pressure) and
   streamed (every edge reads a full k x n weight matrix). *)
let replicated_bmm r ~name ~iters =
  Recipe.alloc r ~label:(name ^ "_wrep") ~bytes:(fl (iters * d * d * 4)) ();
  Recipe.copy r ~name:(name ^ "_replicate") ~bytes:(fl (iters * d * d * 4)) ();
  (* the bmm kernel itself: GEMM-category, but its B operand is the whole
     replicated stack — one full k x n matrix read per edge *)
  Recipe.gemm r ~name:(name ^ "_bmm") ~rows:iters ~k:d ~n:d ();
  Recipe.copy r ~name:(name ^ "_bmm_wread") ~category:Hector_gpu.Kernel.Gemm
    ~bytes:(fl (iters * d * d * 4) /. 2.0) ()

(* --- common sub-recipes --- *)

(* DGL/PyG-style unfused edge softmax: exp kernel, scatter-sum, gather +
   divide; materializes two per-edge scalars. *)
let unfused_edge_softmax r prefix =
  let g = Recipe.graph r in
  let e = g.G.num_edges in
  Recipe.alloc r ~label:(prefix ^ "_exp") ~bytes:(Recipe.edge_tensor_bytes r ~dim:1) ();
  Recipe.alloc r ~label:(prefix ^ "_attn") ~bytes:(Recipe.edge_tensor_bytes r ~dim:1) ();
  Recipe.traversal r ~name:(prefix ^ "_exp") ~iters:e ~flops_per_iter:4.0 ~coalesced_per_iter:8.0 ();
  Recipe.traversal r ~name:(prefix ^ "_sum") ~iters:e ~coalesced_per_iter:4.0 ~atomic_per_iter:4.0 ();
  Recipe.traversal r ~name:(prefix ^ "_div") ~iters:e ~flops_per_iter:1.0 ~coalesced_per_iter:8.0
    ~gathered_per_iter:4.0 ()

(* fused (compiled) edge softmax: exp+sum, then divide *)
let fused_edge_softmax r prefix =
  let g = Recipe.graph r in
  let e = g.G.num_edges in
  Recipe.traversal r ~name:(prefix ^ "_expsum") ~iters:e ~flops_per_iter:5.0
    ~coalesced_per_iter:8.0 ~atomic_per_iter:0.5 ~fused:true ();
  Recipe.traversal r ~name:(prefix ^ "_div") ~iters:e ~flops_per_iter:1.0 ~coalesced_per_iter:8.0
    ~gathered_per_iter:4.0 ~fused:true ()

(* weighted aggregation into destination nodes via SpMM-like kernel *)
let spmm_aggregate r name =
  let g = Recipe.graph r in
  Recipe.traversal r ~name ~iters:g.G.num_edges ~flops_per_iter:(fl (2 * d))
    ~gathered_per_iter:(fl (d * 4))
    ~atomic_per_iter:(fl (d * 4) /. 8.0)
    ()

(* gather node rows into an edge-aligned tensor (index_select + copy) *)
let index_copy r name =
  Recipe.copy r ~name:(name ^ "_index") ~category:Hector_gpu.Kernel.Index
    ~bytes:(Recipe.edge_tensor_bytes r ~dim:1) ();
  Recipe.copy r ~name:(name ^ "_copy") ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ()

(* --- DGL --- *)

let dgl_rgcn r ~training =
  let g = Recipe.graph r in
  let n = g.G.num_nodes and e = g.G.num_edges in
  (* gather_mm message path: index_select copy + one fused segment GEMM *)
  Recipe.alloc r ~label:"msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
  index_copy r "dgl_gather";
  Recipe.gemm r ~name:"dgl_segmentmm" ~rows:e ~k:d ~n:d ~gathered:false ();
  spmm_aggregate r "dgl_spmm";
  Recipe.gemm r ~name:"dgl_self" ~rows:n ~k:d ~n:d ~gathered:false ();
  Recipe.traversal r ~name:"dgl_add_relu" ~iters:n ~flops_per_iter:(fl (2 * d))
    ~coalesced_per_iter:(fl (3 * d * 4)) ();
  if training then begin
    Recipe.alloc r ~label:"d_msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
    spmm_aggregate r "dgl_spmm_bwd";
    Recipe.gemm r ~name:"dgl_dW" ~rows:e ~k:d ~n:d ();
    Recipe.gemm r ~name:"dgl_dinput" ~rows:e ~k:d ~n:d ~atomic_out:true ();
    Recipe.gemm r ~name:"dgl_dself" ~rows:n ~k:d ~n:d ~gathered:false ();
    index_copy r "dgl_gather_bwd";
    Recipe.training_overhead r
  end

let dgl_rgat r ~training =
  let g = Recipe.graph r in
  (* HeteroConv of per-relation GATConv modules: each relation owns its
     weights, so its fc transforms every node of the endpoint types; edge
     work (gather, concat, attention, per-relation softmax and spmm) runs
     as a dozen small kernels behind Python dispatch *)
  Recipe.alloc r ~label:"zi" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
  Recipe.alloc r ~label:"zj" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
  Recipe.alloc r ~label:"zcat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
  let per_relation (count, nsrc, ndst) =
    Recipe.host_gap r ~us:25.0;
    (* fc over all nodes of the endpoint types *)
    Recipe.small_gemms r ~name:"dgl_rgat_fc_src" ~count:1 ~rows_each:nsrc ~k:d ~n:d ();
    Recipe.small_gemms r ~name:"dgl_rgat_fc_dst" ~count:1 ~rows_each:ndst ~k:d ~n:d ();
    (* gather transformed endpoints to the relation's edges *)
    Recipe.copy r ~name:"dgl_rgat_gather_src" ~bytes:(fl (count * d * 4)) ();
    Recipe.copy r ~name:"dgl_rgat_gather_dst" ~bytes:(fl (count * d * 4)) ();
    Recipe.copy r ~name:"dgl_rgat_concat" ~bytes:(fl (count * 2 * d * 4)) ();
    Recipe.traversal r ~name:"dgl_rgat_inner" ~iters:count ~flops_per_iter:(fl (4 * d))
      ~gathered_per_iter:(fl (2 * d * 4)) ();
    Recipe.traversal r ~name:"dgl_rgat_lrelu" ~iters:count ~flops_per_iter:1.0
      ~coalesced_per_iter:8.0 ();
    (* per-relation edge softmax (3 kernels) and aggregation *)
    Recipe.traversal r ~name:"dgl_rgat_softmax_exp" ~iters:count ~flops_per_iter:4.0
      ~coalesced_per_iter:8.0 ();
    Recipe.traversal r ~name:"dgl_rgat_softmax_sum" ~iters:count ~atomic_per_iter:4.0
      ~coalesced_per_iter:4.0 ();
    Recipe.traversal r ~name:"dgl_rgat_softmax_div" ~iters:count ~flops_per_iter:1.0
      ~gathered_per_iter:4.0 ~coalesced_per_iter:8.0 ();
    Recipe.copy r ~name:"dgl_rgat_weighted_msg" ~bytes:(fl (count * d * 4)) ();
    Recipe.traversal r ~name:"dgl_rgat_spmm" ~iters:count ~flops_per_iter:(fl (2 * d))
      ~gathered_per_iter:(fl (d * 4))
      ~atomic_per_iter:(fl (d * 4) /. 8.0)
      ()
  in
  List.iter per_relation (relation_shapes g);
  if training then begin
    Recipe.alloc r ~label:"d_zi" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
    Recipe.alloc r ~label:"d_zj" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
    Recipe.alloc r ~label:"d_zcat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
    List.iter
      (fun (count, nsrc, ndst) ->
        Recipe.host_gap r ~us:25.0;
        (* backward of the two fc layers (data + weight paths) *)
        Recipe.small_gemms r ~name:"dgl_rgat_fc_bwd" ~count:2 ~rows_each:(nsrc + ndst) ~k:d ~n:d
          ();
        Recipe.copy r ~name:"dgl_rgat_scatter_bwd" ~bytes:(fl (count * 2 * d * 4)) ();
        Recipe.traversal r ~name:"dgl_rgat_softmax_bwd" ~iters:count ~flops_per_iter:8.0
          ~coalesced_per_iter:24.0 ~atomic_per_iter:4.0 ();
        Recipe.traversal r ~name:"dgl_rgat_spmm_bwd" ~iters:count ~flops_per_iter:(fl (2 * d))
          ~gathered_per_iter:(fl (d * 4))
          ~atomic_per_iter:(fl (d * 4) /. 8.0)
          ())
      (relation_shapes g);
    Recipe.training_overhead r
  end

let dgl_hgt r ~training =
  let g = Recipe.graph r in
  let n = g.G.num_nodes and e = g.G.num_edges in
  (* segment-MM HGTConv: K/Q/V projections + typed attention and message *)
  Recipe.alloc r ~label:"kqv" ~bytes:(3.0 *. Recipe.node_tensor_bytes r ~dim:d) ();
  Recipe.alloc r ~label:"kw" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
  Recipe.alloc r ~label:"m" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
  Recipe.gemm r ~name:"dgl_hgt_k" ~rows:n ~k:d ~n:d ~gathered:false ();
  Recipe.gemm r ~name:"dgl_hgt_q" ~rows:n ~k:d ~n:d ~gathered:false ();
  Recipe.gemm r ~name:"dgl_hgt_v" ~rows:n ~k:d ~n:d ~gathered:false ();
  index_copy r "dgl_hgt_gather_k";
  index_copy r "dgl_hgt_gather_v";
  Recipe.gemm r ~name:"dgl_hgt_att" ~rows:e ~k:d ~n:d ~gathered:false ();
  Recipe.gemm r ~name:"dgl_hgt_msg" ~rows:e ~k:d ~n:d ~gathered:false ();
  Recipe.traversal r ~name:"dgl_hgt_inner" ~iters:e ~flops_per_iter:(fl (2 * d))
    ~gathered_per_iter:(fl (2 * d * 4)) ();
  unfused_edge_softmax r "dgl_hgt_softmax";
  spmm_aggregate r "dgl_hgt_agg";
  Recipe.traversal r ~name:"dgl_hgt_relu" ~iters:n ~flops_per_iter:(fl d)
    ~coalesced_per_iter:(fl (2 * d * 4)) ();
  if training then begin
    Recipe.alloc r ~label:"d_kw" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
    Recipe.alloc r ~label:"d_m" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
    spmm_aggregate r "dgl_hgt_agg_bwd";
    unfused_edge_softmax r "dgl_hgt_softmax_bwd";
    Recipe.gemm r ~name:"dgl_hgt_datt" ~rows:e ~k:d ~n:d ~atomic_out:true ();
    Recipe.gemm r ~name:"dgl_hgt_dmsg" ~rows:e ~k:d ~n:d ~atomic_out:true ();
    Recipe.gemm r ~name:"dgl_hgt_dW" ~rows:e ~k:d ~n:d ();
    Recipe.gemm r ~name:"dgl_hgt_dkqv" ~rows:n ~k:d ~n:(3 * d) ~gathered:false ();
    index_copy r "dgl_hgt_gather_bwd";
    index_copy r "dgl_hgt_scatter_bwd_k";
    index_copy r "dgl_hgt_scatter_bwd_v";
    (* backward of the per-edge attention inner product, unfused *)
    Recipe.traversal r ~name:"dgl_hgt_inner_bwd" ~iters:e ~flops_per_iter:(fl (4 * d))
      ~gathered_per_iter:(fl (4 * d * 4)) ();
    Recipe.training_overhead r
  end

let dgl r ~model ~training =
  match model with
  | "rgcn" -> dgl_rgcn r ~training
  | "rgat" -> dgl_rgat r ~training
  | "hgt" -> dgl_hgt r ~training
  | m -> unsupported "DGL: unknown model %s" m

(* --- PyG --- *)

let pyg_fast r ~model ~training =
  match model with
  | "rgcn" ->
      let g = Recipe.graph r in
      let n = g.G.num_nodes and e = g.G.num_edges in
      (* FastRGCNConv: replicate W along the edge dimension and bmm() *)
      Recipe.alloc r ~label:"w_replicated" ~bytes:(fl (e * d * d * 4)) ();
      Recipe.copy r ~name:"pyg_w_replicate" ~bytes:(fl (e * d * d * 4)) ();
      Recipe.alloc r ~label:"msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      index_copy r "pyg_gather";
      Recipe.gemm r ~name:"pyg_bmm" ~rows:e ~k:d ~n:d ();
      spmm_aggregate r "pyg_aggregate";
      Recipe.gemm r ~name:"pyg_self" ~rows:n ~k:d ~n:d ~gathered:false ();
      Recipe.traversal r ~name:"pyg_add_relu" ~iters:n ~flops_per_iter:(fl (2 * d))
        ~coalesced_per_iter:(fl (3 * d * 4)) ();
      if training then begin
        (* the replicated weight also gets a replicated gradient *)
        Recipe.alloc r ~label:"d_w_replicated" ~bytes:(fl (e * d * d * 4)) ();
        Recipe.copy r ~name:"pyg_dw_reduce" ~bytes:(fl (e * d * d * 4)) ();
        Recipe.alloc r ~label:"d_msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
        spmm_aggregate r "pyg_aggregate_bwd";
        Recipe.gemm r ~name:"pyg_bmm_bwd" ~rows:e ~k:d ~n:d ();
        Recipe.gemm r ~name:"pyg_dself" ~rows:n ~k:d ~n:d ~gathered:false ();
        Recipe.training_overhead r
      end
  | "rgat" | "hgt" -> unsupported "PyG FastRGCNConv only implements RGCN"
  | m -> unsupported "PyG: unknown model %s" m

let pyg_loop r ~model ~training =
  match model with
  | "rgcn" ->
      (* RGCNConv: a per-relation loop of gather + small mm + scatter *)
      let g = Recipe.graph r in
      List.iter
        (fun count ->
          Recipe.host_gap r ~us:14.0;
          Recipe.copy r ~name:"pyg_rel_gather" ~bytes:(fl (count * d * 4)) ();
          Recipe.small_gemms r ~name:"pyg_rel_mm" ~count:1 ~rows_each:count ~k:d ~n:d ();
          Recipe.traversal r ~name:"pyg_rel_scatter" ~iters:count
            ~atomic_per_iter:(fl (d * 4) /. 8.0)
            ~coalesced_per_iter:(fl (d * 4)) ())
        (relation_counts g);
      let n = g.G.num_nodes in
      Recipe.gemm r ~name:"pyg_self" ~rows:n ~k:d ~n:d ~gathered:false ();
      if training then begin
        List.iter
          (fun count ->
            Recipe.host_gap r ~us:14.0;
            Recipe.small_gemms r ~name:"pyg_rel_bwd" ~count:2 ~rows_each:count ~k:d ~n:d ())
          (relation_counts g);
        Recipe.gemm r ~name:"pyg_dself" ~rows:n ~k:d ~n:d ~gathered:false ();
        Recipe.training_overhead r
      end
  | "rgat" ->
      (* per-relation RGAT modules, same HeteroConv shape as DGL plus one
         more materialized intermediate per relation *)
      let g = Recipe.graph r in
      Recipe.alloc r ~label:"zi" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"zj" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"zcat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
      List.iter
        (fun (count, nsrc, ndst) ->
          Recipe.host_gap r ~us:25.0;
          Recipe.small_gemms r ~name:"pyg_rgat_fc" ~count:2 ~rows_each:((nsrc + ndst) / 2) ~k:d
            ~n:d ();
          Recipe.copy r ~name:"pyg_rgat_gather" ~bytes:(fl (count * 2 * d * 4)) ();
          Recipe.copy r ~name:"pyg_rgat_concat" ~bytes:(fl (count * 2 * d * 4)) ();
          Recipe.copy r ~name:"pyg_rgat_alpha" ~bytes:(fl (count * 2 * d * 4)) ();
          Recipe.traversal r ~name:"pyg_rgat_inner" ~iters:count ~flops_per_iter:(fl (4 * d))
            ~gathered_per_iter:(fl (2 * d * 4)) ();
          Recipe.traversal r ~name:"pyg_rgat_softmax" ~iters:(3 * count) ~flops_per_iter:2.0
            ~coalesced_per_iter:8.0 ~atomic_per_iter:1.4 ();
          Recipe.traversal r ~name:"pyg_rgat_spmm" ~iters:count ~flops_per_iter:(fl (2 * d))
            ~gathered_per_iter:(fl (d * 4))
            ~atomic_per_iter:(fl (d * 4) /. 8.0)
            ())
        (relation_shapes g);
      if training then begin
        Recipe.alloc r ~label:"d_edge" ~bytes:(3.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
        List.iter
          (fun (count, nsrc, ndst) ->
            Recipe.host_gap r ~us:25.0;
            Recipe.small_gemms r ~name:"pyg_rgat_bwd" ~count:3 ~rows_each:((nsrc + ndst) / 2) ~k:d
              ~n:d ();
            Recipe.copy r ~name:"pyg_rgat_bwd_copy" ~bytes:(fl (count * 2 * d * 4)) ())
          (relation_shapes g);
        Recipe.training_overhead r
      end
  | "hgt" ->
      (* HGTConv with grouped matmuls, heavier on copies than DGL's *)
      dgl_hgt r ~training;
      index_copy r "pyg_hgt_extra_copy";
      index_copy r "pyg_hgt_extra_copy2"
  | m -> unsupported "PyG: unknown model %s" m

(* --- Seastar --- *)

(* Vertex-centric typed linear: evaluated per edge inside the compiled
   kernel, weight slice fetched per edge with partial L2 reuse and no
   shared-memory tiling. *)
let seastar_typed_linear r ~name ~iters =
  let g = Recipe.graph r in
  let weight_working_set = fl (G.num_etypes g * d * d * 4) in
  let l2 = 6.0e6 in
  (* every edge indexes its own weight slice inside the vertex-centric
     kernel: no shared-memory tiling, so reuse is whatever L2 happens to
     keep — never better than ~50 % even for small relation sets because
     concurrent blocks thrash each other's slices *)
  let miss = Float.max 0.5 (Float.min 1.0 (weight_working_set /. l2)) in
  Recipe.traversal r ~name ~iters
    ~flops_per_iter:(fl (2 * d * d) *. 2.5 (* no tiling: poor MAC efficiency *))
    ~gathered_per_iter:((fl (d * 4) *. 2.0) +. (fl (d * d * 4) *. miss))
    ~fused:true ()

let seastar r ~model ~training =
  let g = Recipe.graph r in
  let n = g.G.num_nodes and e = g.G.num_edges in
  let epochs_work () =
    match model with
    | "rgcn" ->
        Recipe.alloc r ~label:"msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
        seastar_typed_linear r ~name:"seastar_msg" ~iters:e;
        (* vertex-centric aggregation: no atomics *)
        Recipe.traversal r ~name:"seastar_agg" ~iters:e ~flops_per_iter:(fl (2 * d))
          ~gathered_per_iter:(fl (d * 4)) ~fused:true ();
        seastar_typed_linear r ~name:"seastar_self" ~iters:n
    | "rgat" ->
        Recipe.alloc r ~label:"z" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
        seastar_typed_linear r ~name:"seastar_zi" ~iters:e;
        seastar_typed_linear r ~name:"seastar_zj" ~iters:e;
        Recipe.traversal r ~name:"seastar_attn" ~iters:e ~flops_per_iter:(fl (4 * d))
          ~gathered_per_iter:(fl (4 * d)) ~fused:true ();
        fused_edge_softmax r "seastar_softmax";
        Recipe.traversal r ~name:"seastar_agg" ~iters:e ~flops_per_iter:(fl (2 * d))
          ~gathered_per_iter:(fl (d * 4)) ~fused:true ()
    | "hgt" ->
        Recipe.alloc r ~label:"kqv" ~bytes:(3.0 *. Recipe.node_tensor_bytes r ~dim:d) ();
        Recipe.alloc r ~label:"edge" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
        seastar_typed_linear r ~name:"seastar_k" ~iters:n;
        seastar_typed_linear r ~name:"seastar_q" ~iters:n;
        seastar_typed_linear r ~name:"seastar_v" ~iters:n;
        seastar_typed_linear r ~name:"seastar_att" ~iters:e;
        seastar_typed_linear r ~name:"seastar_msg" ~iters:e;
        Recipe.traversal r ~name:"seastar_inner" ~iters:e ~flops_per_iter:(fl (2 * d))
          ~gathered_per_iter:(fl (2 * d * 4)) ~fused:true ();
        fused_edge_softmax r "seastar_softmax";
        Recipe.traversal r ~name:"seastar_agg" ~iters:e ~flops_per_iter:(fl (2 * d))
          ~gathered_per_iter:(fl (d * 4)) ~fused:true ()
    | m -> unsupported "Seastar: unknown model %s" m
  in
  epochs_work ();
  if training then begin
    (* backward runs the vertex-centric kernels again (reverse direction)
       plus per-edge weight-gradient accumulation *)
    Recipe.alloc r ~label:"grads" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
    epochs_work ();
    Recipe.traversal r ~name:"seastar_dw" ~iters:e ~flops_per_iter:(fl (2 * d * d))
      ~atomic_per_iter:(fl (d * 4)) ~fused:true ();
    Recipe.training_overhead r
  end

(* --- Graphiler --- *)

let graphiler r ~model ~training =
  if training then unsupported "Graphiler compiles inference only";
  let g = Recipe.graph r in
  let n = g.G.num_nodes and e = g.G.num_edges in
  match model with
  | "rgcn" ->
      (* compiled MPDFG with fused kernels; typed linear split per node
         type; indexing/copy overhead per Figure 1 *)
      Recipe.alloc r ~label:"msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      index_copy r "graphiler_gather";
      Recipe.small_gemms r ~name:"graphiler_typed_mm" ~count:(G.num_ntypes g)
        ~rows_each:(max 1 (e / max 1 (G.num_ntypes g)))
        ~k:d ~n:d ~host_gap_us:4.0 ();
      spmm_aggregate r "graphiler_agg";
      Recipe.gemm r ~name:"graphiler_self" ~rows:n ~k:d ~n:d ~gathered:false ();
      index_copy r "graphiler_reorder"
  | "hgt" ->
      Recipe.alloc r ~label:"kqv" ~bytes:(3.0 *. Recipe.node_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"edge" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.small_gemms r ~name:"graphiler_kqv" ~count:(3 * G.num_ntypes g)
        ~rows_each:(max 1 (n / max 1 (G.num_ntypes g)))
        ~k:d ~n:d ~host_gap_us:4.0 ();
      index_copy r "graphiler_gather_k";
      index_copy r "graphiler_gather_v";
      Recipe.gemm r ~name:"graphiler_att" ~rows:e ~k:d ~n:d ();
      Recipe.gemm r ~name:"graphiler_msg" ~rows:e ~k:d ~n:d ();
      Recipe.traversal r ~name:"graphiler_fused_attention" ~iters:e ~flops_per_iter:(fl (2 * d))
        ~gathered_per_iter:(fl (2 * d * 4)) ();
      fused_edge_softmax r "graphiler_softmax";
      spmm_aggregate r "graphiler_agg";
      index_copy r "graphiler_reorder"
  | "rgat" ->
      (* no pre-programmed fused kernel: the MPDFG decomposes into
         materialized edge-wise TorchScript operations (§4.2); edge-typed
         linear layers go through weight replication + bmm because no
         segment-MM primitive exists for per-edge-type weights *)
      Recipe.alloc r ~label:"zi" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"zj" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"zcat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
      Recipe.alloc r ~label:"scores" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:1) ();
      index_copy r "graphiler_gather_src";
      index_copy r "graphiler_gather_dst";
      replicated_bmm r ~name:"graphiler_zi" ~iters:e;
      replicated_bmm r ~name:"graphiler_zj" ~iters:e;
      Recipe.copy r ~name:"graphiler_concat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
      Recipe.traversal r ~name:"graphiler_att_mm" ~iters:e ~flops_per_iter:(fl (4 * d))
        ~coalesced_per_iter:(fl (4 * d * 4)) ();
      Recipe.traversal r ~name:"graphiler_lrelu" ~iters:e ~flops_per_iter:1.0
        ~coalesced_per_iter:8.0 ();
      unfused_edge_softmax r "graphiler_softmax";
      Recipe.copy r ~name:"graphiler_weighted_msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      spmm_aggregate r "graphiler_agg";
      index_copy r "graphiler_reorder"
  | m -> unsupported "Graphiler: unknown model %s" m

(* --- HGL --- *)

let hgl r ~model ~training =
  if not training then unsupported "HGL optimizes training only (not measured for inference)";
  let g = Recipe.graph r in
  let e = g.G.num_edges in
  (* holistic-representation construction: node and edge data converted
     into HGL's internal layout every epoch *)
  Recipe.copy r ~name:"hgl_repr_in" ~bytes:(Recipe.node_tensor_bytes r ~dim:d +. Recipe.edge_tensor_bytes r ~dim:8) ();
  Recipe.copy r ~name:"hgl_repr_out" ~bytes:(Recipe.node_tensor_bytes r ~dim:d) ();
  match model with
  | "hgt" -> unsupported "HGL lacks HGT operator support"
  | "rgcn" ->
      (* inter-operator fusion but no segment-MM: per-relation linears over
         the endpoint-type node sets (DGL-based), fused elementwise work *)
      Recipe.alloc r ~label:"msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      List.iter
        (fun (count, nsrc, _) ->
          Recipe.host_gap r ~us:8.0;
          Recipe.small_gemms r ~name:"hgl_rel_mm" ~count:1 ~rows_each:nsrc ~k:d ~n:d
            ~host_gap_us:4.0 ();
          Recipe.copy r ~name:"hgl_rel_gather" ~bytes:(fl (count * d * 4)) ())
        (relation_shapes g);
      spmm_aggregate r "hgl_agg";
      (* backward *)
      Recipe.alloc r ~label:"d_msg" ~bytes:(Recipe.edge_tensor_bytes r ~dim:d) ();
      List.iter
        (fun (count, nsrc, _) ->
          Recipe.host_gap r ~us:8.0;
          Recipe.small_gemms r ~name:"hgl_rel_bwd" ~count:2 ~rows_each:nsrc ~k:d ~n:d
            ~host_gap_us:4.0 ();
          Recipe.copy r ~name:"hgl_rel_scatter" ~bytes:(fl (count * d * 4)) ())
        (relation_shapes g);
      spmm_aggregate r "hgl_agg_bwd";
      Recipe.training_overhead r
  | "rgat" ->
      Recipe.alloc r ~label:"z" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
      Recipe.alloc r ~label:"zcat" ~bytes:(Recipe.edge_tensor_bytes r ~dim:(2 * d)) ();
      List.iter
        (fun (count, nsrc, ndst) ->
          Recipe.host_gap r ~us:8.0;
          Recipe.small_gemms r ~name:"hgl_rgat_lin" ~count:2 ~rows_each:((nsrc + ndst) / 2) ~k:d
            ~n:d ~host_gap_us:4.0 ();
          Recipe.copy r ~name:"hgl_rgat_gather" ~bytes:(fl (count * 2 * d * 4)) ())
        (relation_shapes g);
      (* fused attention + softmax *)
      Recipe.traversal r ~name:"hgl_attn" ~iters:e ~flops_per_iter:(fl (4 * d))
        ~gathered_per_iter:(fl (2 * d * 4)) ();
      fused_edge_softmax r "hgl_softmax";
      spmm_aggregate r "hgl_agg";
      (* backward *)
      Recipe.alloc r ~label:"dz" ~bytes:(2.0 *. Recipe.edge_tensor_bytes r ~dim:d) ();
      List.iter
        (fun (count, nsrc, ndst) ->
          Recipe.host_gap r ~us:8.0;
          Recipe.small_gemms r ~name:"hgl_rgat_bwd" ~count:3 ~rows_each:((nsrc + ndst) / 2) ~k:d
            ~n:d ~host_gap_us:4.0 ();
          Recipe.copy r ~name:"hgl_rgat_scatter" ~bytes:(fl (count * d * 4)) ())
        (relation_shapes g);
      (* attention backward: per-edge gradient of the inner product and the
         per-edge weight-gradient accumulation its fused kernels still pay *)
      Recipe.traversal r ~name:"hgl_attn_bwd" ~iters:e ~flops_per_iter:(fl (8 * d))
        ~gathered_per_iter:(fl (4 * d * 4)) ();
      Recipe.traversal r ~name:"hgl_dw_accum" ~iters:e ~flops_per_iter:(fl (2 * d))
        ~atomic_per_iter:(fl (2 * d * 4)) ~fused:true ();
      fused_edge_softmax r "hgl_softmax_bwd";
      spmm_aggregate r "hgl_agg_bwd";
      Recipe.training_overhead r
  | m -> unsupported "HGL: unknown model %s" m
