module Engine = Hector_gpu.Engine
module Device = Hector_gpu.Device
module G = Hector_graph.Hetgraph
module Ir = Hector_core.Inter_ir
module Plan = Hector_core.Plan
module Lf = Hector_core.Linear_fusion
module Compiler = Hector_core.Compiler

type t = { device : Device.t; ctx : Graph_ctx.t; scale : float }

let create ?(device = Device.rtx3090) ~graph () =
  { device; ctx = Graph_ctx.create graph; scale = graph.G.scale }

(* Weight names whose gradient stacks the backward plan materializes. *)
let direct_grad_weights (bwd : Plan.t) =
  List.fold_left
    (fun tbl step ->
      List.iter (fun n -> Hashtbl.replace tbl n ()) (Plan.written_grads step);
      tbl)
    (Hashtbl.create 8) bwd.Plan.steps

(* The two NLL reductions {!Train.loss_and_grads} charges between the
   forward and backward plans, over the first output's rows. *)
let loss_kernels t (fwd : Plan.t) =
  let cols =
    match fwd.Plan.program.Ir.outputs with
    | o :: _ -> (
        match Plan.find_buffer fwd o with
        | Some b -> b.Plan.dim
        | None -> invalid_arg (Printf.sprintf "Plan_cost: output %S is not a buffer" o))
    | [] -> invalid_arg "Plan_cost: training program has no outputs"
  in
  Pricing.loss_kernels ~origin:"train" ~rows:(Graph_ctx.graph t.ctx).G.num_nodes ~cols

(* The optimizer launches a {!Train}-driven epoch adds after the backward
   plan: one [bmm_backward] per weight op whose product received a
   gradient, and one SGD kernel per original weight with a gradient
   stack. *)
let update_kernels t (compiled : Compiler.compiled) (bwd : Plan.t) =
  let shape = Graph_ctx.weight_shape t.ctx compiled.Compiler.forward.Plan.program in
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
          Some (Pricing.bmm_backward_kernel ~shape op)
        end
        else None)
      (List.rev compiled.Compiler.weight_ops)
  in
  let fused = Train.fused_outs compiled.Compiler.weight_ops in
  let sgd =
    Hashtbl.fold
      (fun name () acc ->
        if List.mem name fused then acc else Pricing.sgd_kernel ~name ~shape:(shape name) :: acc)
      grads []
  in
  bmm @ sgd

let kernels t (compiled : Compiler.compiled) =
  let fwd = compiled.Compiler.forward in
  let plan p =
    let s = Pricing.schedule ~ctx:t.ctx p in
    Array.to_list (Array.concat (s.Pricing.at_start :: Array.to_list s.Pricing.at_step))
  in
  match compiled.Compiler.backward with
  | Some bwd when compiled.Compiler.options.Compiler.training ->
      plan fwd @ loss_kernels t fwd @ plan bwd @ update_kernels t compiled bwd
  | _ -> plan fwd

let estimate_ms t compiled =
  List.fold_left
    (fun acc k -> acc +. Engine.predict_ms ~scale:t.scale t.device k)
    0.0 (kernels t compiled)
