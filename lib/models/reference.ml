module Tensor = Hector_tensor.Tensor
module Hetgraph = Hector_graph.Hetgraph
module G = Hector_graph.Hetgraph
module Csr = Hector_graph.Csr
module Dp = Hector_tensor.Domain_pool

let leaky_slope = 0.01

(* The reference models run on the same multicore backend as the compiled
   plans: per-node and per-edge projection tables are filled by
   [Domain_pool.parallel_for] (disjoint writes), and destination-row
   accumulations walk the incoming-CSR view so each domain owns a disjoint
   slice of output nodes.  Because a CSR row stores its edges in ascending
   edge id, per-row accumulation order — and therefore the floating-point
   result — is identical to the sequential edge loop at any domain count;
   with one domain every [parallel_for] degrades to the plain loop.

   Row reads go through per-chunk scratch buffers ([copy_row_into]) so the
   hot loops allocate nothing per edge beyond the tables they fill. *)

let matvec_row x w =
  (* x (k) · w (k×n) -> (n) *)
  let k = Tensor.dim w 0 and n = Tensor.dim w 1 in
  if Array.length x <> k then invalid_arg "Reference: dimension mismatch";
  let out = Array.make n 0.0 in
  for i = 0 to k - 1 do
    for j = 0 to n - 1 do
      out.(j) <- out.(j) +. (x.(i) *. Tensor.get2 w i j)
    done
  done;
  out

(* allocation-free variant for scratch-buffer loops *)
let matvec_row_into x w out =
  let k = Tensor.dim w 0 and n = Tensor.dim w 1 in
  if Array.length x <> k || Array.length out <> n then
    invalid_arg "Reference: dimension mismatch";
  Array.fill out 0 n 0.0;
  for i = 0 to k - 1 do
    for j = 0 to n - 1 do
      out.(j) <- out.(j) +. (x.(i) *. Tensor.get2 w i j)
    done
  done

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let add_into dst src scale =
  Array.iteri (fun i x -> dst.(i) <- dst.(i) +. (scale *. x)) src

let of_rows rows =
  Tensor.of_2d rows

(* grains, in rows/edges per chunk: each iteration is a dense matvec, so
   chunks this small already amortize the pool handshake *)
let node_grain = 8
let edge_grain = 16

let edge_softmax (g : G.t) pre =
  (* pre: float array per edge -> normalized attention per edge *)
  let sums = Array.make g.G.num_nodes 0.0 in
  let ex = Array.map Stdlib.exp pre in
  Array.iteri (fun e v -> sums.(g.G.dst.(e)) <- sums.(g.G.dst.(e)) +. v) ex;
  Array.mapi (fun e v -> v /. sums.(g.G.dst.(e))) ex

let rgcn_raw ~act ~graph:(g : G.t) ~h ~norm ~w ~w0 =
  let in_dim = Tensor.cols h in
  let csr = Csr.incoming g in
  let out = Array.make g.G.num_nodes [||] in
  Dp.parallel_for ~grain:node_grain g.G.num_nodes (fun lo hi ->
      let xbuf = Array.make in_dim 0.0 in
      let msg = Array.make (Tensor.dim w 2) 0.0 in
      let w00 = Tensor.slice0 w0 0 in
      for v = lo to hi - 1 do
        Tensor.copy_row_into h v xbuf;
        let acc = matvec_row xbuf w00 in
        for k = csr.Csr.row_ptr.(v) to csr.Csr.row_ptr.(v + 1) - 1 do
          let e = csr.Csr.eid.(k) in
          Tensor.copy_row_into h g.G.src.(e) xbuf;
          matvec_row_into xbuf (Tensor.slice0 w g.G.etype.(e)) msg;
          add_into acc msg (Tensor.get2 norm e 0)
        done;
        if act then
          for j = 0 to Array.length acc - 1 do
            if acc.(j) < 0.0 then acc.(j) <- 0.0
          done;
        out.(v) <- acc
      done);
  of_rows out

(* relu(h·W₀ + Σ_r Σ_{u∈N_v^r} norm_e · h_u·W_r) per node *)
let rgcn ~graph ~h ~norm ~w ~w0 = rgcn_raw ~act:true ~graph ~h ~norm ~w ~w0

let rgcn_two_layer ~graph ~h ~norm ~w1 ~w01 ~w2 ~w02 =
  let h1 = rgcn_raw ~act:true ~graph ~h ~norm ~w:w1 ~w0:w01 in
  rgcn_raw ~act:false ~graph ~h:h1 ~norm ~w:w2 ~w0:w02

(* Single-headed RGAT: typed z_i/z_j, additive attention with leaky ReLU,
   edge softmax, attention-weighted sum of z_i. *)
let rgat ~graph:(g : G.t) ~h ~w ~att =
  let in_dim = Tensor.cols h in
  let out_dim = Tensor.dim w 2 in
  let ne = g.G.num_edges in
  let zi = Array.make ne [||] and zj = Array.make ne [||] in
  let pre = Array.make ne 0.0 in
  Dp.parallel_for ~grain:edge_grain ne (fun lo hi ->
      let xbuf = Array.make in_dim 0.0 in
      for e = lo to hi - 1 do
        let wm = Tensor.slice0 w g.G.etype.(e) in
        Tensor.copy_row_into h g.G.src.(e) xbuf;
        zi.(e) <- matvec_row xbuf wm;
        Tensor.copy_row_into h g.G.dst.(e) xbuf;
        zj.(e) <- matvec_row xbuf wm;
        (* a · [z_i; z_j], summed in the concatenation order *)
        let a = att and r = g.G.etype.(e) in
        let acc = ref 0.0 in
        for j = 0 to out_dim - 1 do
          acc := !acc +. (Tensor.get2 a r j *. zi.(e).(j))
        done;
        for j = 0 to out_dim - 1 do
          acc := !acc +. (Tensor.get2 a r (out_dim + j) *. zj.(e).(j))
        done;
        let s = !acc in
        pre.(e) <- (if s > 0.0 then s else leaky_slope *. s)
      done);
  let attn = edge_softmax g pre in
  let csr = Csr.incoming g in
  let out = Array.make g.G.num_nodes [||] in
  Dp.parallel_for ~grain:node_grain g.G.num_nodes (fun lo hi ->
      for v = lo to hi - 1 do
        let acc = Array.make out_dim 0.0 in
        for k = csr.Csr.row_ptr.(v) to csr.Csr.row_ptr.(v + 1) - 1 do
          let e = csr.Csr.eid.(k) in
          add_into acc zi.(e) attn.(e)
        done;
        out.(v) <- acc
      done);
  of_rows out

let rgat_multihead ~graph ~h ~heads =
  match List.map (fun (w, att) -> rgat ~graph ~h ~w ~att) heads with
  | [] -> invalid_arg "Reference.rgat_multihead: no heads"
  | first :: rest -> List.fold_left Tensor.concat_cols first rest

(* one HGT head without the final activation *)
let hgt_head ~graph:(g : G.t) ~h ~k ~q ~v ~wa ~wm =
  let d = Tensor.dim k 2 in
  let in_dim = Tensor.cols h in
  let nn = g.G.num_nodes and ne = g.G.num_edges in
  let kv = Array.make nn [||] and qv = Array.make nn [||] and vv = Array.make nn [||] in
  Dp.parallel_for ~grain:node_grain nn (fun lo hi ->
      let xbuf = Array.make in_dim 0.0 in
      for n = lo to hi - 1 do
        let nt = g.G.node_type.(n) in
        Tensor.copy_row_into h n xbuf;
        kv.(n) <- matvec_row xbuf (Tensor.slice0 k nt);
        qv.(n) <- matvec_row xbuf (Tensor.slice0 q nt);
        vv.(n) <- matvec_row xbuf (Tensor.slice0 v nt)
      done);
  let kw = Array.make ne [||] and m = Array.make ne [||] in
  let pre = Array.make ne 0.0 in
  let scale = sqrt (float_of_int d) in
  Dp.parallel_for ~grain:edge_grain ne (fun lo hi ->
      for e = lo to hi - 1 do
        let et = g.G.etype.(e) and src = g.G.src.(e) in
        kw.(e) <- matvec_row kv.(src) (Tensor.slice0 wa et);
        m.(e) <- matvec_row vv.(src) (Tensor.slice0 wm et);
        pre.(e) <- dot kw.(e) qv.(g.G.dst.(e)) /. scale
      done);
  let attn = edge_softmax g pre in
  let csr = Csr.incoming g in
  let out = Array.make nn [||] in
  Dp.parallel_for ~grain:node_grain nn (fun lo hi ->
      for v2 = lo to hi - 1 do
        let acc = Array.make d 0.0 in
        for kk = csr.Csr.row_ptr.(v2) to csr.Csr.row_ptr.(v2 + 1) - 1 do
          let e = csr.Csr.eid.(kk) in
          add_into acc m.(e) attn.(e)
        done;
        out.(v2) <- acc
      done);
  of_rows out

(* Single-headed HGT: K/Q/V projections by node type, bilinear
   per-relation attention scaled by 1/√d, edge softmax, per-relation
   messages, ReLU. *)
let hgt ~graph ~h ~k ~q ~v ~wa ~wm =
  Tensor.relu (hgt_head ~graph ~h ~k ~q ~v ~wa ~wm)

let hgt_multihead ~graph ~h ~heads =
  match List.map (fun (k, q, v, wa, wm) -> hgt_head ~graph ~h ~k ~q ~v ~wa ~wm) heads with
  | [] -> invalid_arg "Reference.hgt_multihead: no heads"
  | first :: rest -> Tensor.relu (List.fold_left Tensor.concat_cols first rest)

let need kind assoc name =
  match List.assoc_opt name assoc with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Reference: missing %s %S" kind name)

let by_name name ~graph ~inputs ~weights =
  let input = need "input" inputs and weight = need "weight" weights in
  match name with
  | "rgcn" ->
      rgcn ~graph ~h:(input "h") ~norm:(input "norm") ~w:(weight "W") ~w0:(weight "W0")
  | "rgat" -> rgat ~graph ~h:(input "h") ~w:(weight "W") ~att:(weight "att")
  | "hgt" ->
      hgt ~graph ~h:(input "h") ~k:(weight "K") ~q:(weight "Q") ~v:(weight "V") ~wa:(weight "Wa")
        ~wm:(weight "Wm")
  | _ -> invalid_arg (Printf.sprintf "Reference.by_name: unknown model %S" name)
