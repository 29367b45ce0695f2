module Tensor = Hector_tensor.Tensor
module Engine = Hector_gpu.Engine
module Lf = Hector_core.Linear_fusion
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Plan = Hector_core.Plan
module Compiler = Hector_core.Compiler

let fused_outs ops =
  List.map (function Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out) ops

(* --- loss ------------------------------------------------------------ *)

(* The one NLL kernel: adds [-log softmax(out_i)[label_i] · inv_n] per row
   to the returned loss and writes its gradient into row [i] of [grad].
   Rows [owned] marks [false] get a zero gradient and no loss. *)
let nll_into ~engine ~origin ?owned ?label_rows ~inv_n ~out ~labels ~grad () =
  let rows = Tensor.rows out and c = Tensor.cols out in
  let nlabels = Array.length (Option.value label_rows ~default:labels) in
  if nlabels <> rows then invalid_arg (Printf.sprintf "nll_loss: %d labels for %d rows" nlabels rows);
  (* flat loops over the storage: a cross-module [get2] boxes each read *)
  let oa, o0 = Tensor.storage out and ga, g0 = Tensor.storage grad in
  let gcols = Tensor.cols grad in
  let loss = ref 0.0 and counted = ref 0 in
  for i = 0 to rows - 1 do
    let ob = o0 + (i * c) and gb = g0 + (i * gcols) in
    if (match owned with None -> true | Some mask -> mask.(i)) then begin
      incr counted;
      let label = match label_rows with None -> labels.(i) | Some r -> labels.(r.(i)) in
      if label < 0 || label >= c then invalid_arg "nll_loss: label out of range";
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
    end
    else Array.fill ga gb c 0.0
  done;
  List.iter (Engine.launch engine) (Pricing.loss_kernels ~origin ~rows:!counted ~cols:c);
  !loss

let nll_loss ~engine ~out ~labels =
  let n = Tensor.rows out in
  let grad = Tensor.zeros [| n; Tensor.cols out |] in
  let inv_n = 1.0 /. float_of_int (max 1 n) in
  let loss = nll_into ~engine ~origin:"train" ~inv_n ~out ~labels ~grad () in
  (loss, grad)

let backprop_weight_ops ~(exec : Exec.t) ops =
  let env = exec.Exec.env in
  (* process in reverse: later products may feed earlier ones in principle *)
  List.iter
    (fun op ->
      let out = match op with Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out in
      match Env.weight_grad_opt env out with
      | None -> ()
      | Some dout ->
          (match op with
          | Lf.Mat_vec { mat; vec; half; _ } ->
              (* out[t] = W[t] · v[t]⟨half⟩ : dW[t] += dout[t] ⊗ v_half[t];
                 dv_half[t] += W[t]ᵀ · dout[t] *)
              let w = Env.weight env mat and v = Env.weight env vec in
              let dw = Env.weight_grad env mat and dv = Env.weight_grad env vec in
              let col = match half with `Left | `All -> 0 | `Right -> Tensor.dim w 2 in
              Tensor.mat_vec_backward w v ~col ~dout ~dw ~dv
          | Lf.Mat_mat { left; left_slice; right; _ } ->
              (* out[r] = L[nt(r)] · R[r] : dL[nt(r)] += dout[r] · R[r]ᵀ;
                 dR[r] += L[nt(r)]ᵀ · dout[r] *)
              let l = Env.weight env left and r = Env.weight env right in
              let dl = Env.weight_grad env left and dr = Env.weight_grad env right in
              for s = 0 to Tensor.dim r 0 - 1 do
                let nt = Graph_ctx.factor_slice exec.Exec.ctx left_slice ~slices:(Tensor.dim l 0) s in
                let douts = Tensor.slice0 dout s in
                Tensor.matmul_into ~trans_b:true ~beta:1.0 douts (Tensor.slice0 r s)
                  (Tensor.slice0 dl nt);
                Tensor.matmul_into ~trans_a:true ~beta:1.0 (Tensor.slice0 l nt) douts
                  (Tensor.slice0 dr s)
              done);
          Engine.launch exec.Exec.engine
            (Pricing.bmm_backward_kernel ~shape:(fun n -> Tensor.shape (Env.weight env n)) op))
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
          (* a storage copy, not [dst <- 0 + src]: [0.0 +. -0.0] is [+0.0],
             and a restore must keep every bit *)
          let sd, so = Tensor.storage src and dd, doff = Tensor.storage dst in
          Array.blit sd so dd doff (Tensor.numel src))
    ws

let sgd_step ?(skip = []) ~(exec : Exec.t) ~lr () =
  let env = exec.Exec.env in
  List.iter
    (fun (name, grad) ->
      if not (List.mem name skip) then begin
        let w = Env.weight env name in
        Tensor.axpy (-.lr) grad w;
        Engine.launch exec.Exec.engine (Pricing.sgd_kernel ~name ~shape:(Tensor.shape w))
      end)
    (Env.weight_grads env);
  Env.zero_weight_grads env

(* The training-step body every trainer shares.  The seed gradient is the
   environment's own binding when there is one (a staged view, or the
   tensor an earlier step bound), else a device-charged tensor bound here
   for later steps. *)
let loss_and_grads ?(origin = "train") ?owned ?label_rows ?inv_n ?on_step ~(exec : Exec.t)
    (compiled : Compiler.compiled) ~labels =
  let backward =
    match compiled.Compiler.backward with
    | Some b -> b
    | None -> invalid_arg "Train.loss_and_grads: model compiled without training support"
  in
  let env = exec.Exec.env and engine = exec.Exec.engine in
  Exec.run_plan ~free_temps:false exec compiled.Compiler.forward;
  let out_name = List.hd compiled.Compiler.forward.Plan.program.Ir.outputs in
  let out = (Env.find env out_name).Env.tensor in
  let rows = Tensor.rows out and cols = Tensor.cols out in
  let seed_name = Hector_core.Autodiff.grad_name out_name in
  let seed =
    match Env.find_opt env seed_name with
    | Some entry -> entry.Env.tensor
    | None ->
        let alloc = Engine.alloc_tensor engine ~label:seed_name ~rows ~cols () in
        let seed = Tensor.zeros [| rows; cols |] in
        Env.add env ~name:seed_name
          { Env.tensor = seed; space = Mat.Rows_nodes; dim = cols; alloc = Some alloc };
        seed
  in
  let inv_n = match inv_n with Some x -> x | None -> 1.0 /. float_of_int (max 1 rows) in
  let loss = nll_into ~engine ~origin ?owned ?label_rows ~inv_n ~out ~labels ~grad:seed () in
  Exec.run_plan ?on_step ~free_temps:true exec backward;
  backprop_weight_ops ~exec compiled.Compiler.weight_ops;
  Exec.free_temp_buffers exec compiled.Compiler.forward;
  loss
