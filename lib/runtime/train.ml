module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Lf = Hector_core.Linear_fusion
module Ir = Hector_core.Inter_ir
module Mg = Hector_graph.Metagraph
module G = Hector_graph.Hetgraph

let nll_loss ~engine ~out ~labels =
  let n = Tensor.rows out and c = Tensor.cols out in
  if Array.length labels <> n then
    invalid_arg (Printf.sprintf "nll_loss: %d labels for %d rows" (Array.length labels) n);
  let grad = Tensor.zeros [| n; c |] in
  (* flat loops over the storage: a cross-module [get2] boxes each read *)
  let oa, o0 = Tensor.storage out and ga, _ = Tensor.storage grad in
  let loss = ref 0.0 in
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  for i = 0 to n - 1 do
    let label = labels.(i) in
    if label < 0 || label >= c then invalid_arg "nll_loss: label out of range";
    let ob = o0 + (i * c) and gb = i * c in
    (* stable log-softmax *)
    let m = ref neg_infinity in
    for j = 0 to c - 1 do
      if oa.(ob + j) > !m then m := oa.(ob + j)
    done;
    let z = ref 0.0 in
    for j = 0 to c - 1 do
      z := !z +. Stdlib.exp (oa.(ob + j) -. !m)
    done;
    let logz = Stdlib.log !z +. !m in
    loss := !loss -. ((oa.(ob + label) -. logz) *. inv_n);
    for j = 0 to c - 1 do
      let p = Stdlib.exp (oa.(ob + j) -. logz) in
      ga.(gb + j) <- (if j = label then p -. 1.0 else p) *. inv_n
    done
  done;
  let bytes = float_of_int (n * c * 4) in
  Engine.launch engine
    (Kernel.make ~name:"log_softmax" ~category:Kernel.Reduction
       ~grid_blocks:(max 1 (n / 256))
       ~flops:(float_of_int (n * c * 5))
       ~bytes_coalesced:(2.0 *. bytes)
       ~provenance:(Kernel.provenance ~origin:"train" "loss") ());
  Engine.launch engine
    (Kernel.make ~name:"nll_grad" ~category:Kernel.Reduction
       ~grid_blocks:(max 1 (n / 256))
       ~flops:(float_of_int (n * c))
       ~bytes_coalesced:(2.0 *. bytes)
       ~provenance:(Kernel.provenance ~origin:"train" "loss") ());
  (!loss, grad)

let backprop_weight_ops ~(exec : Exec.t) ops =
  let env = exec.Exec.env in
  let mg = (Graph_ctx.graph exec.Exec.ctx).G.metagraph in
  (* process in reverse: later products may feed earlier ones in principle *)
  List.iter
    (fun op ->
      match op with
      | Lf.Mat_vec { mat; vec; half; out } -> (
          match Env.weight_grad_opt env out with
          | None -> ()
          | Some dout ->
              (* out[t] = W[t] · v[t]⟨half⟩ : dW[t] += dout[t] ⊗ v_half[t];
                 dv_half[t] += W[t]ᵀ · dout[t] *)
              let w = Env.weight env mat and v = Env.weight env vec in
              let dw = Env.weight_grad env mat and dv = Env.weight_grad env vec in
              let col = match half with `Left | `All -> 0 | `Right -> Tensor.dim w 2 in
              Tensor.mat_vec_backward w v ~col ~dout ~dw ~dv;
              Engine.launch exec.Exec.engine
                (Kernel.make ~name:("bmm_backward_" ^ out) ~category:Kernel.Gemm ~grid_blocks:64
                   ~flops:(4.0 *. float_of_int (Tensor.numel w))
                   ~bytes_coalesced:(float_of_int (Tensor.numel w * 4))
                   ~graph_proportional:false
                   ~provenance:(Kernel.provenance ~origin:"linear_fusion" out) ()))
      | Lf.Mat_mat { left; left_slice; right; out } -> (
          match Env.weight_grad_opt env out with
          | None -> ()
          | Some dout ->
              (* out[r] = L[nt(r)] · R[r] : dL[nt(r)] += dout[r] · R[r]ᵀ;
                 dR[r] += L[nt(r)]ᵀ · dout[r] *)
              let l = Env.weight env left and r = Env.weight env right in
              let dl = Env.weight_grad env left and dr = Env.weight_grad env right in
              let slices = Tensor.dim r 0 in
              for s = 0 to slices - 1 do
                let nt =
                  match left_slice with
                  | Ir.By_src_ntype -> Mg.src_ntype mg s
                  | Ir.By_dst_ntype -> Mg.dst_ntype mg s
                  | Ir.By_ntype | Ir.By_etype -> s
                  | Ir.Shared -> 0
                in
                let nt = min nt (Tensor.dim l 0 - 1) in
                let douts = Tensor.slice0 dout s in
                Tensor.matmul_into ~trans_b:true ~beta:1.0 douts (Tensor.slice0 r s)
                  (Tensor.slice0 dl nt);
                Tensor.matmul_into ~trans_a:true ~beta:1.0 (Tensor.slice0 l nt) douts
                  (Tensor.slice0 dr s)
              done;
              Engine.launch exec.Exec.engine
                (Kernel.make ~name:("bmm_backward_" ^ out) ~category:Kernel.Gemm ~grid_blocks:64
                   ~flops:(4.0 *. float_of_int (Tensor.numel dout) *. float_of_int (Tensor.dim r 1))
                   ~bytes_coalesced:(float_of_int (Tensor.numel r * 4))
                   ~graph_proportional:false
                   ~provenance:(Kernel.provenance ~origin:"linear_fusion" out) ())))
    (List.rev ops)

(* Restore parameter values in place — the checkpoint/restore path.  Every
   named tensor must already exist with the same shape; copying into the
   existing storage (rather than rebinding) keeps persistent engine
   allocations, gradient bindings and arena backings alive across a
   restore, so a resumed session is bit-identical to one that never
   stopped.  Names the environment does not know are skipped: checkpoints
   may carry fusion-computed products that a differently-compiled restore
   target recomputes instead of binding. *)
let set_weights ~(exec : Exec.t) ws =
  let env = exec.Exec.env in
  List.iter
    (fun (name, src) ->
      match Env.weight_opt env name with
      | None -> ()
      | Some dst ->
          if Tensor.shape dst <> Tensor.shape src then
            invalid_arg
              (Printf.sprintf "Train.set_weights: shape mismatch for %S" name);
          Tensor.fill dst 0.0;
          Tensor.add_inplace dst src)
    ws

let sgd_step ?(skip = []) ~(exec : Exec.t) ~lr () =
  let env = exec.Exec.env in
  List.iter
    (fun (name, grad) ->
      if not (List.mem name skip) then begin
        let w = Env.weight env name in
        Tensor.axpy (-.lr) grad w;
        Engine.launch exec.Exec.engine
          (Kernel.make ~name:("sgd_" ^ name) ~category:Kernel.Reduction ~grid_blocks:32
             ~flops:(float_of_int (Tensor.numel w))
             ~bytes_coalesced:(float_of_int (Tensor.numel w * 8))
             ~graph_proportional:false
             ~provenance:(Kernel.provenance ~origin:"train" "sgd") ())
      end)
    (Env.weight_grads env);
  Env.zero_weight_grads env
