module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Device = Hector_gpu.Device
module G = Hector_graph.Hetgraph
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
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

(* A shape-only environment mirroring what {!Session.create} + plan buffer
   allocation would bind: input features and weight stacks from the
   declarations (skipping declarations shadowed by fused products), fused
   weight-product stacks chained through the weight ops, every plan buffer,
   and — for training — the seed gradient the loss writes. *)
let shape_env t (compiled : Compiler.compiled) =
  let g = Graph_ctx.graph t.ctx in
  let env = Env.create () in
  let stub = Lazy.force stub in
  let fused = Train.fused_outs compiled.Compiler.weight_ops in
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
                Env.add_weight env ~name (Tensor.zeros [| Session.slice_count g slice; rows; cols |])
          | Ir.Weight_vec { slice; dim; _ } ->
              if not (List.mem name fused) then
                Env.add_weight env ~name (Tensor.zeros [| Session.slice_count g slice; dim |]))
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
     first output (Train.loss_and_grads binds it on the first step) *)
  (match (compiled.Compiler.backward, compiled.Compiler.forward.Plan.program.Ir.outputs) with
  | Some _, out :: _ ->
      let seed = Autodiff.grad_name out in
      if Env.find_opt env seed = None then
        let dim = (Env.find env out).Env.dim in
        Env.add env ~name:seed { Env.tensor = stub; space = Mat.Rows_nodes; dim; alloc = None }
  | _ -> ());
  env

(* Weight names whose gradient stacks the backward plan materializes. *)
let direct_grad_weights (bwd : Plan.t) =
  List.fold_left
    (fun tbl step ->
      List.iter (fun n -> Hashtbl.replace tbl n ()) (Plan.written_grads step);
      tbl)
    (Hashtbl.create 8) bwd.Plan.steps

(* The two NLL reductions {!Train.loss_and_grads} charges between the
   forward and backward plans. *)
let loss_kernels t ~env (compiled : Compiler.compiled) =
  let out_name =
    match compiled.Compiler.forward.Plan.program.Ir.outputs with
    | o :: _ -> o
    | [] -> invalid_arg "Plan_cost: training program has no outputs"
  in
  Pricing.loss_kernels ~origin:"train" ~rows:(Graph_ctx.graph t.ctx).G.num_nodes
    ~cols:(Env.find env out_name).Env.dim

(* The optimizer launches a {!Train}-driven epoch adds after the backward
   plan: one [bmm_backward] per weight op whose product received a
   gradient, and one SGD kernel per original weight with a gradient
   stack. *)
let update_kernels ~env (compiled : Compiler.compiled) (bwd : Plan.t) =
  let grads = direct_grad_weights bwd in
  (* replay of Train.backprop_weight_ops: reverse order, propagating
     membership from products to their factors as it goes *)
  let bmm =
    List.filter_map
      (fun op ->
        let factors, out =
          match op with
          | Lf.Mat_vec { mat; vec; out; _ } -> ([ mat; vec ], out)
          | Lf.Mat_mat { left; right; out; _ } -> ([ left; right ], out)
        in
        if Hashtbl.mem grads out then begin
          List.iter (fun w -> Hashtbl.replace grads w ()) factors;
          Some (Pricing.bmm_backward_kernel ~env op)
        end
        else None)
      (List.rev compiled.Compiler.weight_ops)
  in
  let fused = Train.fused_outs compiled.Compiler.weight_ops in
  let sgd =
    Hashtbl.fold
      (fun name () acc ->
        if List.mem name fused then acc else Pricing.sgd_kernel ~name (Env.weight env name) :: acc)
      grads []
  in
  bmm @ sgd

let kernels t (compiled : Compiler.compiled) =
  let env = shape_env t compiled in
  let fwd = Pricing.plan_kernels ~env ~ctx:t.ctx compiled.Compiler.forward in
  match compiled.Compiler.backward with
  | Some bwd when compiled.Compiler.options.Compiler.training ->
      fwd @ loss_kernels t ~env compiled @ Pricing.plan_kernels ~env ~ctx:t.ctx bwd
      @ update_kernels ~env compiled bwd
  | _ -> fwd

let estimate_ms t compiled =
  List.fold_left
    (fun acc k -> acc +. Engine.predict_ms ~scale:t.scale t.device k)
    0.0 (kernels t compiled)
