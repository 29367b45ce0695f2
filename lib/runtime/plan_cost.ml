module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Device = Hector_gpu.Device
module G = Hector_graph.Hetgraph
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Gs = Hector_core.Gemm_spec
module Lf = Hector_core.Linear_fusion
module Compiler = Hector_core.Compiler
module Autodiff = Hector_core.Autodiff

type t = { device : Device.t; ctx : Graph_ctx.t; scale : float }

let of_ctx ?(device = Device.rtx3090) ctx =
  { device; ctx; scale = (Graph_ctx.graph ctx).G.scale }

let create ?device ~graph () = of_ctx ?device (Graph_ctx.create graph)

(* Entry tensors are never read by the cost functions — only [dim] and
   [space] are — so every entry shares one 1×1 stub. *)
let stub = lazy (Tensor.zeros [| 1; 1 |])

let slice_count g = function
  | Ir.By_etype -> G.num_etypes g
  | Ir.By_ntype | Ir.By_src_ntype | Ir.By_dst_ntype -> G.num_ntypes g
  | Ir.Shared -> 1

let fused_outs ops =
  List.map (function Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out) ops

(* A shape-only environment mirroring what {!Session.create} + plan buffer
   allocation would bind: input features and weight stacks from the
   declarations (skipping declarations shadowed by fused products), fused
   weight-product stacks chained through the weight ops, every plan buffer,
   and — for training — the seed gradient the loss writes. *)
let shape_env t (compiled : Compiler.compiled) =
  let g = Graph_ctx.graph t.ctx in
  let env = Env.create () in
  let stub = Lazy.force stub in
  let fused = fused_outs compiled.Compiler.weight_ops in
  let add_decls (program : Ir.program) =
    List.iter
      (fun decl ->
        let name = Ir.decl_name decl in
        if Env.find_opt env name = None && Env.weight_opt env name = None then
          match decl with
          | Ir.Node_input { dim; _ } ->
              Env.add env ~name { Env.tensor = stub; space = Mat.Rows_nodes; dim; alloc = None }
          | Ir.Edge_input { dim; _ } ->
              Env.add env ~name { Env.tensor = stub; space = Mat.Rows_edges; dim; alloc = None }
          | Ir.Weight_mat { slice; rows; cols; _ } ->
              if not (List.mem name fused) then
                Env.add_weight env ~name (Tensor.zeros [| slice_count g slice; rows; cols |])
          | Ir.Weight_vec { slice; dim; _ } ->
              if not (List.mem name fused) then
                Env.add_weight env ~name (Tensor.zeros [| slice_count g slice; dim |]))
      program.Ir.decls
  in
  add_decls compiled.Compiler.forward.Plan.program;
  (* fused products, in application order: later ops may consume earlier
     outs *)
  List.iter
    (fun op ->
      match op with
      | Lf.Mat_vec { mat; out; _ } ->
          let w = Env.weight env mat in
          Env.add_weight env ~name:out (Tensor.zeros [| Tensor.dim w 0; Tensor.dim w 1 |])
      | Lf.Mat_mat { left; right; out; _ } ->
          let l = Env.weight env left and r = Env.weight env right in
          Env.add_weight env ~name:out
            (Tensor.zeros [| Tensor.dim r 0; Tensor.dim l 1; Tensor.dim r 2 |]))
    compiled.Compiler.weight_ops;
  let add_buffers (plan : Plan.t) =
    List.iter
      (fun (b : Plan.buffer) ->
        if Env.find_opt env b.Plan.name = None then
          Env.add env ~name:b.Plan.name
            { Env.tensor = stub; space = b.Plan.space; dim = b.Plan.dim; alloc = None })
      plan.Plan.buffers
  in
  add_buffers compiled.Compiler.forward;
  (* backward decls re-declare the kept forward buffers as generic inputs;
     bind them only after the forward buffers so compact spaces survive *)
  (match compiled.Compiler.backward with
  | Some b ->
      add_decls b.Plan.program;
      add_buffers b
  | None -> ());
  (* the loss seeds the backward pass through a gradient entry for the
     first output (Session.loss_and_grads binds it before running) *)
  (match (compiled.Compiler.backward, compiled.Compiler.forward.Plan.program.Ir.outputs) with
  | Some _, out :: _ ->
      let seed = Autodiff.grad_name out in
      if Env.find_opt env seed = None then
        let dim = (Env.find env out).Env.dim in
        Env.add env ~name:seed { Env.tensor = stub; space = Mat.Rows_nodes; dim; alloc = None }
  | _ -> ());
  env

(* Steady-state launches of one [Exec.run_plan]: a memset per zero-init
   buffer outside {!Plan.inline_zeroed}, then each step's kernels. *)
let plan_kernels t ~env (plan : Plan.t) =
  let inlined = Plan.inline_zeroed plan in
  let memsets =
    List.filter_map
      (fun (b : Plan.buffer) ->
        if b.Plan.zero_init && not (List.mem b.Plan.name inlined) then
          Some
            (Exec.memset_kernel ~name:b.Plan.name
               ~rows:(Graph_ctx.rows_of_space t.ctx b.Plan.space)
               ~dim:b.Plan.dim)
        else None)
      plan.Plan.buffers
  in
  memsets @ List.concat_map (Exec.step_kernels ~env ~ctx:t.ctx ~plan) plan.Plan.steps

(* Weight names whose gradient stacks the backward plan materializes:
   dweight GEMM targets plus [Grad_weight] statements in traversal and
   fallback bodies. *)
let direct_grad_weights (bwd : Plan.t) =
  let tbl = Hashtbl.create 8 in
  let add n = Hashtbl.replace tbl n () in
  let add_stmt = function Ir.Grad_weight { name; _ } -> add name | _ -> () in
  List.iter
    (fun step ->
      match step with
      | Plan.Gemm { Gs.task = Gs.Edge_linear_dweight { grad_weight; _ }; _ }
      | Plan.Gemm { Gs.task = Gs.Node_linear_dweight { grad_weight; _ }; _ } ->
          add grad_weight
      | Plan.Gemm _ | Plan.Weight_op _ -> ()
      | Plan.Traversal spec -> List.iter add_stmt spec.Hector_core.Traversal_spec.body
      | Plan.Fallback f -> List.iter add_stmt f.Plan.body
      | Plan.Fused _ -> () (* flatten_steps already expanded members *))
    (Plan.flatten_steps bwd);
  tbl

(* The loss / optimizer launches one {!Train}-driven epoch adds on top of
   the forward and backward plans: two reduction kernels for the NLL loss,
   one [bmm_backward] per weight op whose product received a gradient, and
   one SGD kernel per original weight with a gradient stack. *)
let training_kernels t ~env (compiled : Compiler.compiled) (bwd : Plan.t) =
  let g = Graph_ctx.graph t.ctx in
  let out_name =
    match compiled.Compiler.forward.Plan.program.Ir.outputs with
    | o :: _ -> o
    | [] -> invalid_arg "Plan_cost: training program has no outputs"
  in
  let n = g.G.num_nodes and c = (Env.find env out_name).Env.dim in
  let bytes = float_of_int (n * c * 4) in
  let loss =
    [
      Kernel.make ~name:"log_softmax" ~category:Kernel.Reduction
        ~grid_blocks:(max 1 (n / 256))
        ~flops:(float_of_int (n * c * 5))
        ~bytes_coalesced:(2.0 *. bytes) ();
      Kernel.make ~name:"nll_grad" ~category:Kernel.Reduction
        ~grid_blocks:(max 1 (n / 256))
        ~flops:(float_of_int (n * c))
        ~bytes_coalesced:(2.0 *. bytes) ();
    ]
  in
  let grads = direct_grad_weights bwd in
  (* replay of Train.backprop_weight_ops: reverse order, propagating
     membership from products to their factors as it goes *)
  let bmm =
    List.filter_map
      (fun op ->
        match op with
        | Lf.Mat_vec { mat; vec; out; _ } ->
            if Hashtbl.mem grads out then begin
              Hashtbl.replace grads mat ();
              Hashtbl.replace grads vec ();
              let w = Env.weight env mat in
              Some
                (Kernel.make ~name:("bmm_backward_" ^ out) ~category:Kernel.Gemm ~grid_blocks:64
                   ~flops:(4.0 *. float_of_int (Tensor.numel w))
                   ~bytes_coalesced:(float_of_int (Tensor.numel w * 4))
                   ~graph_proportional:false ())
            end
            else None
        | Lf.Mat_mat { left; right; out; _ } ->
            if Hashtbl.mem grads out then begin
              Hashtbl.replace grads left ();
              Hashtbl.replace grads right ();
              let r = Env.weight env right in
              let dout = Env.weight env out in
              Some
                (Kernel.make ~name:("bmm_backward_" ^ out) ~category:Kernel.Gemm ~grid_blocks:64
                   ~flops:(4.0 *. float_of_int (Tensor.numel dout) *. float_of_int (Tensor.dim r 1))
                   ~bytes_coalesced:(float_of_int (Tensor.numel r * 4))
                   ~graph_proportional:false ())
            end
            else None)
      (List.rev compiled.Compiler.weight_ops)
  in
  let fused = fused_outs compiled.Compiler.weight_ops in
  let sgd =
    Hashtbl.fold
      (fun name () acc ->
        if List.mem name fused then acc
        else
          let w = Env.weight env name in
          Kernel.make ~name:("sgd_" ^ name) ~category:Kernel.Reduction ~grid_blocks:32
            ~flops:(float_of_int (Tensor.numel w))
            ~bytes_coalesced:(float_of_int (Tensor.numel w * 8))
            ~graph_proportional:false ()
          :: acc)
      grads []
  in
  loss @ bmm @ sgd

let kernels t (compiled : Compiler.compiled) =
  let env = shape_env t compiled in
  let fwd = plan_kernels t ~env compiled.Compiler.forward in
  match compiled.Compiler.backward with
  | Some bwd when compiled.Compiler.options.Compiler.training ->
      fwd @ plan_kernels t ~env bwd @ training_kernels t ~env compiled bwd
  | _ -> fwd

let estimate_ms t compiled =
  List.fold_left
    (fun acc k -> acc +. Engine.predict_ms ~scale:t.scale t.device k)
    0.0 (kernels t compiled)

let launches t compiled = List.length (kernels t compiled)
