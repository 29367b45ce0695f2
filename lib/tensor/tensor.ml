type t = { shape : int array; offset : int; data : float array }

exception Shape_error of string

(* Multicore backend: element/row loops below a grain run sequentially;
   larger ones are chunked across the persistent domain pool.  Grains are
   in loop iterations, sized so a chunk is worth a fork/join handshake. *)
let elt_grain = 4096

let row_grain cols = max 1 (elt_grain / max 1 cols)

let shape_error fmt = Format.kasprintf (fun s -> raise (Shape_error s)) fmt

let product a = Array.fold_left ( * ) 1 a

let check_shape shape =
  Array.iter (fun d -> if d < 0 then shape_error "negative dimension in shape") shape

(* Lightweight instrumentation: fresh-buffer allocations and bulk row copies
   (gather/scatter/concat traffic).  Atomic so parallel kernels can report;
   bumped once per operation, never inside per-element loops. *)
let alloc_counter = Atomic.make 0
let copy_counter = Atomic.make 0

let count_alloc () = Atomic.incr alloc_counter
let count_copied bytes = if bytes > 0 then ignore (Atomic.fetch_and_add copy_counter bytes)

let allocation_count () = Atomic.get alloc_counter
let copied_bytes () = Atomic.get copy_counter

let reset_counters () =
  Atomic.set alloc_counter 0;
  Atomic.set copy_counter 0

let create shape =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.make (product shape) 0.0 }

(* Uninitialized storage: contents are unspecified until written.  Only safe
   when every element is overwritten before its first read — callers below
   use it for outputs they fully define (map, matmul with beta=0, gather). *)
let create_uninit shape =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.create_float (product shape) }

let zeros = create

let full shape v =
  check_shape shape;
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.make (product shape) v }

let ones shape = full shape 1.0

let numel t = product t.shape

let shape t = Array.copy t.shape

let ndim t = Array.length t.shape

let dim t i =
  if i < 0 || i >= Array.length t.shape then shape_error "dim %d out of rank %d" i (Array.length t.shape);
  t.shape.(i)

let rows t = if ndim t <> 2 then shape_error "rows: tensor is %d-D, not 2-D" (ndim t) else t.shape.(0)
let cols t = if ndim t <> 2 then shape_error "cols: tensor is %d-D, not 2-D" (ndim t) else t.shape.(1)

let flat_index t idx =
  let n = Array.length t.shape in
  if Array.length idx <> n then shape_error "index rank %d vs tensor rank %d" (Array.length idx) n;
  let off = ref t.offset and stride = ref 1 in
  for i = n - 1 downto 0 do
    if idx.(i) < 0 || idx.(i) >= t.shape.(i) then
      shape_error "index %d out of bound %d in dim %d" idx.(i) t.shape.(i) i;
    off := !off + (idx.(i) * !stride);
    stride := !stride * t.shape.(i)
  done;
  !off

let get t idx = t.data.(flat_index t idx)
let set t idx v = t.data.(flat_index t idx) <- v

let get1 t i = t.data.(t.offset + i)
let set1 t i v = t.data.(t.offset + i) <- v

let get2 t i j = t.data.(t.offset + (i * t.shape.(1)) + j)
let set2 t i j v = t.data.(t.offset + (i * t.shape.(1)) + j) <- v

let storage t = (t.data, t.offset)

let item t =
  if numel t <> 1 then shape_error "item: tensor has %d elements" (numel t);
  t.data.(t.offset)

let init shape f =
  check_shape shape;
  let t = create shape in
  let n = Array.length shape in
  let idx = Array.make n 0 in
  let total = numel t in
  let pos = ref 0 in
  while !pos < total do
    t.data.(t.offset + !pos) <- f idx;
    incr pos;
    (* advance multi-index *)
    let i = ref (n - 1) in
    let carry = ref true in
    while !carry && !i >= 0 do
      idx.(!i) <- idx.(!i) + 1;
      if idx.(!i) >= shape.(!i) then begin
        idx.(!i) <- 0;
        decr i
      end
      else carry := false
    done
  done;
  t

let scalar v = full [||] v

let of_array shape data =
  check_shape shape;
  if Array.length data <> product shape then
    shape_error "of_array: %d elements vs shape product %d" (Array.length data) (product shape);
  count_alloc ();
  { shape = Array.copy shape; offset = 0; data = Array.copy data }

let of_2d rows_arr =
  let r = Array.length rows_arr in
  let c = if r = 0 then 0 else Array.length rows_arr.(0) in
  Array.iter
    (fun row -> if Array.length row <> c then shape_error "of_2d: ragged rows")
    rows_arr;
  let t = create [| r; c |] in
  for i = 0 to r - 1 do
    Array.blit rows_arr.(i) 0 t.data (i * c) c
  done;
  t

let randn rng shape =
  let t = create shape in
  for i = 0 to numel t - 1 do
    t.data.(i) <- Rng.gaussian rng
  done;
  t

let glorot rng shape =
  let n = Array.length shape in
  if n < 2 then shape_error "glorot: need at least 2 dimensions";
  let fan_in = shape.(n - 2) and fan_out = shape.(n - 1) in
  let limit = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  let t = create shape in
  for i = 0 to numel t - 1 do
    t.data.(i) <- (Rng.uniform rng *. 2.0 *. limit) -. limit
  done;
  t

let is_view t = t.offset <> 0 || Array.length t.data <> numel t

let to_flat_array t =
  Array.sub t.data t.offset (numel t)

let copy t =
  count_alloc ();
  { shape = Array.copy t.shape; offset = 0; data = to_flat_array t }

(* Zero-copy prefix view used by the arena memory planner: interpret the
   first [product shape'] elements of [t]'s backing store under a new shape.
   The base must itself be a plain tensor (not a view). *)
let view t shape' =
  check_shape shape';
  if t.offset <> 0 then shape_error "view: base tensor must not be a view";
  if product shape' > Array.length t.data then
    shape_error "view: %d elements exceed backing capacity %d" (product shape')
      (Array.length t.data);
  { shape = Array.copy shape'; offset = 0; data = t.data }

let reshape t shape' =
  check_shape shape';
  if product shape' <> numel t then
    shape_error "reshape: %d elements vs %d" (numel t) (product shape');
  if is_view t then { shape = Array.copy shape'; offset = 0; data = to_flat_array t }
  else { t with shape = Array.copy shape' }

let slice0 t i =
  if ndim t < 1 then shape_error "slice0: rank-0 tensor";
  if i < 0 || i >= t.shape.(0) then shape_error "slice0: index %d out of %d" i t.shape.(0);
  let sub_shape = Array.sub t.shape 1 (ndim t - 1) in
  let sz = product sub_shape in
  { shape = sub_shape; offset = t.offset + (i * sz); data = t.data }

let row m i =
  if ndim m <> 2 then shape_error "row: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "row: index %d out of %d" i m.shape.(0);
  { shape = [| m.shape.(1) |]; offset = m.offset + (i * m.shape.(1)); data = m.data }

let row_array m i =
  if ndim m <> 2 then shape_error "row_array: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "row_array: index %d out of %d" i m.shape.(0);
  Array.sub m.data (m.offset + (i * m.shape.(1))) m.shape.(1)

let copy_row_into m i buf =
  if ndim m <> 2 then shape_error "copy_row_into: not a matrix";
  if i < 0 || i >= m.shape.(0) then shape_error "copy_row_into: index %d out of %d" i m.shape.(0);
  let c = m.shape.(1) in
  if Array.length buf <> c then shape_error "copy_row_into: buffer %d vs %d cols" (Array.length buf) c;
  Array.blit m.data (m.offset + (i * c)) buf 0 c

let sub_rows m start len =
  if ndim m <> 2 then shape_error "sub_rows: not a matrix";
  if start < 0 || len < 0 || start + len > m.shape.(0) then
    shape_error "sub_rows: [%d, %d) out of %d rows" start (start + len) m.shape.(0);
  { shape = [| len; m.shape.(1) |]; offset = m.offset + (start * m.shape.(1)); data = m.data }

let to_2d m =
  if ndim m <> 2 then shape_error "to_2d: not a matrix";
  Array.init m.shape.(0) (fun i ->
      Array.sub m.data (m.offset + (i * m.shape.(1))) m.shape.(1))

let same_shape a b = a.shape = b.shape

let map f t =
  let n = numel t in
  let out = create_uninit t.shape in
  Domain_pool.parallel_for ~grain:elt_grain n (fun lo hi ->
      for i = lo to hi - 1 do
        out.data.(i) <- f t.data.(t.offset + i)
      done);
  out

let map2 f a b =
  if not (same_shape a b) then shape_error "map2: shape mismatch";
  let n = numel a in
  let out = create_uninit a.shape in
  Domain_pool.parallel_for ~grain:elt_grain n (fun lo hi ->
      for i = lo to hi - 1 do
        out.data.(i) <- f a.data.(a.offset + i) b.data.(b.offset + i)
      done);
  out

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let mul a b = map2 ( *. ) a b
let div a b = map2 ( /. ) a b
let scale k t = map (fun x -> k *. x) t

let add_inplace dst src =
  if not (same_shape dst src) then shape_error "add_inplace: shape mismatch";
  Domain_pool.parallel_for ~grain:elt_grain (numel dst) (fun lo hi ->
      for i = lo to hi - 1 do
        dst.data.(dst.offset + i) <- dst.data.(dst.offset + i) +. src.data.(src.offset + i)
      done)

let axpy a x y =
  if not (same_shape x y) then shape_error "axpy: shape mismatch";
  Domain_pool.parallel_for ~grain:elt_grain (numel x) (fun lo hi ->
      for i = lo to hi - 1 do
        y.data.(y.offset + i) <- y.data.(y.offset + i) +. (a *. x.data.(x.offset + i))
      done)

let fill t v = Array.fill t.data t.offset (numel t) v

let exp t = map Stdlib.exp t

let leaky_relu ?(slope = 0.01) t = map (fun x -> if x > 0.0 then x else slope *. x) t

let relu t = map (fun x -> if x > 0.0 then x else 0.0) t

(* --- GEMM --------------------------------------------------------------
   Every GEMM entry point reduces to [gemm_row], which computes one output
   row [c(crow + j)], [j < n], from the [kn] coefficients [a_k] of one
   logical row of A and the logical [kn × n] matrix B, where
     a_k    = adata.(abase + r_k * astride), r_k = arows.(aoff + k) if
              [arows] is non-empty (a gathered column,
              {!matmul_gather_t_into}) else k;
     b(k,j) = bdata.(bbase + k * bks + j * bjs).
   Output columns are register-blocked eight at a time: a block's eight
   sums live in local float refs, which ocamlopt keeps unboxed, across the
   whole k loop and are stored once, instead of a load and a store of c
   per k.  Each element still sees exactly the operations of the textbook
   loop — its starting value, then [+. a_k *. b(k, j)] for k ascending,
   skipping a_k = 0.0 — so results are bitwise the naive loop's.  Without
   [add] a sum starts from c (already zeroed or scaled by [prescale]) and
   overwrites it; with [add] it starts from 0.0 and is added into c at the
   end (the scatter epilogue).  The loops stay in this module because the
   dev profile compiles with [-opaque]: a cross-module [get2] per element
   cannot be inlined. *)
let gemm_row ~add ~adata ~abase ~astride ~arows ~aoff ~bdata ~bbase ~bks ~bjs ~cdata ~crow ~kn ~n =
  let gathered = Array.length arows > 0 in
  let j0 = ref 0 in
  while !j0 + 8 <= n do
    let q = crow + !j0 and bj = bbase + (!j0 * bjs) in
    let c0 = ref (if add then 0.0 else cdata.(q)) in
    let c1 = ref (if add then 0.0 else cdata.(q + 1)) in
    let c2 = ref (if add then 0.0 else cdata.(q + 2)) in
    let c3 = ref (if add then 0.0 else cdata.(q + 3)) in
    let c4 = ref (if add then 0.0 else cdata.(q + 4)) in
    let c5 = ref (if add then 0.0 else cdata.(q + 5)) in
    let c6 = ref (if add then 0.0 else cdata.(q + 6)) in
    let c7 = ref (if add then 0.0 else cdata.(q + 7)) in
    let ak = ref abase and bk = ref bj in
    for k = 0 to kn - 1 do
      let aik = adata.(if gathered then abase + (arows.(aoff + k) * astride) else !ak) in
      if aik <> 0.0 then begin
        let p = !bk in
        c0 := !c0 +. (aik *. bdata.(p));
        let p = p + bjs in
        c1 := !c1 +. (aik *. bdata.(p));
        let p = p + bjs in
        c2 := !c2 +. (aik *. bdata.(p));
        let p = p + bjs in
        c3 := !c3 +. (aik *. bdata.(p));
        let p = p + bjs in
        c4 := !c4 +. (aik *. bdata.(p));
        let p = p + bjs in
        c5 := !c5 +. (aik *. bdata.(p));
        let p = p + bjs in
        c6 := !c6 +. (aik *. bdata.(p));
        let p = p + bjs in
        c7 := !c7 +. (aik *. bdata.(p))
      end;
      ak := !ak + astride;
      bk := !bk + bks
    done;
    if add then begin
      cdata.(q) <- cdata.(q) +. !c0;
      cdata.(q + 1) <- cdata.(q + 1) +. !c1;
      cdata.(q + 2) <- cdata.(q + 2) +. !c2;
      cdata.(q + 3) <- cdata.(q + 3) +. !c3;
      cdata.(q + 4) <- cdata.(q + 4) +. !c4;
      cdata.(q + 5) <- cdata.(q + 5) +. !c5;
      cdata.(q + 6) <- cdata.(q + 6) +. !c6;
      cdata.(q + 7) <- cdata.(q + 7) +. !c7
    end
    else begin
      cdata.(q) <- !c0;
      cdata.(q + 1) <- !c1;
      cdata.(q + 2) <- !c2;
      cdata.(q + 3) <- !c3;
      cdata.(q + 4) <- !c4;
      cdata.(q + 5) <- !c5;
      cdata.(q + 6) <- !c6;
      cdata.(q + 7) <- !c7
    end;
    j0 := !j0 + 8
  done;
  (* the last n mod 8 columns, one register sum each *)
  for j = !j0 to n - 1 do
    let q = crow + j and bj = bbase + (j * bjs) in
    let acc = ref (if add then 0.0 else cdata.(q)) in
    for k = 0 to kn - 1 do
      let aik = adata.(abase + ((if gathered then arows.(aoff + k) else k) * astride)) in
      if aik <> 0.0 then acc := !acc +. (aik *. bdata.(bj + (k * bks)))
    done;
    cdata.(q) <- (if add then cdata.(q) +. !acc else !acc)
  done

(* c's starting value: zeroed for beta = 0, scaled for beta <> 1. *)
let prescale c beta =
  if beta = 0.0 then fill c 0.0
  else if beta <> 1.0 then
    Domain_pool.parallel_for ~grain:elt_grain (numel c) (fun lo hi ->
        for i = lo to hi - 1 do
          c.data.(c.offset + i) <- beta *. c.data.(c.offset + i)
        done)

(* A register block reads each element of c once, so an output sharing
   storage with an operand would silently read half-updated values. *)
let check_no_alias fn c x =
  if c.data == x.data && numel c > 0 && numel x > 0
     && c.offset < x.offset + numel x && x.offset < c.offset + numel c
  then shape_error "%s: output overlaps an operand's storage" fn

let check_gemm_operands fn a b c =
  if ndim a <> 2 || ndim b <> 2 || ndim c <> 2 then shape_error "%s: operands must be 2-D" fn;
  check_no_alias fn c a;
  check_no_alias fn c b

(* Rows of C per parallel chunk: about 32K multiply-adds each. *)
let gemm_grain ~kn ~n = max 1 (32768 / max 1 (kn * n))

let matmul_into ?(trans_a = false) ?(trans_b = false) ?(beta = 0.0) a b c =
  check_gemm_operands "matmul" a b c;
  let am, ak = if trans_a then (a.shape.(1), a.shape.(0)) else (a.shape.(0), a.shape.(1)) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul: inner dims %d vs %d" ak bk;
  if c.shape.(0) <> am || c.shape.(1) <> bn then
    shape_error "matmul: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) am bn;
  prescale c beta;
  let acols = a.shape.(1) and bcols = b.shape.(1) and ccols = c.shape.(1) in
  let bks, bjs = if trans_b then (1, bcols) else (bcols, 1) in
  (* each domain owns a contiguous block of C rows, so writes never race *)
  Domain_pool.parallel_for ~grain:(gemm_grain ~kn:ak ~n:bn) am (fun row_lo row_hi ->
      for i = row_lo to row_hi - 1 do
        let abase, astride =
          if trans_a then (a.offset + i, acols) else (a.offset + (i * acols), 1)
        in
        gemm_row ~add:false ~adata:a.data ~abase ~astride ~arows:[||] ~aoff:0 ~bdata:b.data
          ~bbase:b.offset ~bks ~bjs ~cdata:c.data ~crow:(c.offset + (i * ccols)) ~kn:ak ~n:bn
      done)

let matmul ?(trans_a = false) ?(trans_b = false) a b =
  let am = if trans_a then a.shape.(1) else a.shape.(0) in
  let bn = if trans_b then b.shape.(0) else b.shape.(1) in
  let c = create_uninit [| am; bn |] in
  matmul_into ~trans_a ~trans_b a b c;
  c

(* --- Fused access-scheme GEMM kernels (paper §4.2) ------------------
   The gather, scatter and transpose access schemes are addressing modes
   of [gemm_row], applied on the fly inside its register-blocked loop, so
   the per-edge operand matrix is never materialized.  Each kernel performs
   the floating-point operations in the exact order of its
   materialize-then-matmul equivalent (per-row k-ascending accumulation),
   so results are bitwise identical to the unfused path. *)

let check_rows fn idx off m bound =
  for i = off to off + m - 1 do
    let r = idx.(i) in
    if r < 0 || r >= bound then shape_error "%s: row %d out of %d" fn r bound
  done

(* The window of [idx] a kernel reads: all of it, or with [idx_off] the
   [rows] entries from that offset — a relation's range of a whole-graph
   endpoint column, read in place. *)
let idx_window fn idx idx_off ~rows =
  match idx_off with
  | None -> (0, Array.length idx)
  | Some off ->
      if off < 0 || off + rows > Array.length idx then
        shape_error "%s: %d indices from offset %d exceed %d" fn rows off (Array.length idx);
      (off, rows)

(* c := A[idx] * B (+ beta*c), where A[idx] is the row-gathered view of [a]:
   logical row i of the product reads physical row idx.(i) of [a]. *)
let matmul_gather_into ?(trans_b = false) ?(beta = 0.0) ?idx_off a ~idx b c =
  check_gemm_operands "matmul_gather_into" a b c;
  let off, m = idx_window "matmul_gather_into" idx idx_off ~rows:c.shape.(0) in
  let ak = a.shape.(1) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul_gather_into: inner dims %d vs %d" ak bk;
  if c.shape.(0) <> m || c.shape.(1) <> bn then
    shape_error "matmul_gather_into: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) m bn;
  check_rows "matmul_gather_into" idx off m a.shape.(0);
  prescale c beta;
  let acols = a.shape.(1) and bcols = b.shape.(1) and ccols = c.shape.(1) in
  let bks, bjs = if trans_b then (1, bcols) else (bcols, 1) in
  Domain_pool.parallel_for ~grain:(gemm_grain ~kn:ak ~n:bn) m (fun row_lo row_hi ->
      for i = row_lo to row_hi - 1 do
        gemm_row ~add:false ~adata:a.data ~abase:(a.offset + (idx.(off + i) * acols)) ~astride:1
          ~arows:[||] ~aoff:0 ~bdata:b.data ~bbase:b.offset ~bks ~bjs ~cdata:c.data
          ~crow:(c.offset + (i * ccols)) ~kn:ak ~n:bn
      done)

(* Row idx.(i) of [c] accumulates row i of the product A*B: each product
   row is summed from 0.0 in registers and added into its destination as
   it completes (so duplicate destinations keep their sequential
   accumulation order).  Parallelism is destination-partitioned over the
   pool, like {!scatter_rows_add}: each domain owns a contiguous slice of
   [c]'s rows, sweeps the whole index, and computes only the product rows
   that land in its slice — no two domains ever write the same row. *)
let matmul_scatter_add_into ?(trans_b = false) ?idx_off a b ~idx c =
  check_gemm_operands "matmul_scatter_add_into" a b c;
  let m = a.shape.(0) in
  let off, len = idx_window "matmul_scatter_add_into" idx idx_off ~rows:m in
  if len <> m then
    shape_error "matmul_scatter_add_into: %d rows vs %d indices" m (Array.length idx);
  let ak = a.shape.(1) in
  let bk, bn = if trans_b then (b.shape.(1), b.shape.(0)) else (b.shape.(0), b.shape.(1)) in
  if ak <> bk then shape_error "matmul_scatter_add_into: inner dims %d vs %d" ak bk;
  if c.shape.(1) <> bn then
    shape_error "matmul_scatter_add_into: output has %d cols, expected %d" c.shape.(1) bn;
  let nrows = c.shape.(0) in
  check_rows "matmul_scatter_add_into" idx off m nrows;
  let acols = a.shape.(1) and bcols = b.shape.(1) and ccols = c.shape.(1) in
  let bks, bjs = if trans_b then (1, bcols) else (bcols, 1) in
  let body row_lo row_hi =
    for i = 0 to m - 1 do
      let dst = idx.(off + i) in
      if dst >= row_lo && dst < row_hi then
        gemm_row ~add:true ~adata:a.data ~abase:(a.offset + (i * acols)) ~astride:1 ~arows:[||]
          ~aoff:0 ~bdata:b.data ~bbase:b.offset ~bks ~bjs ~cdata:c.data ~crow:(c.offset + (dst * ccols))
          ~kn:ak ~n:bn
    done
  in
  if Domain_pool.sequential () || m * bn <= elt_grain then body 0 nrows
  else
    Domain_pool.parallel_for ~grain:(row_grain (max 1 (m * bn / max 1 nrows))) nrows body

(* c := A[idx]^T * B (+ beta*c) — the transpose access scheme composed with
   the gather, used for weight gradients (dW += X[src]^T * dY).  Row i of
   [c] takes its coefficients from column i of A[idx]. *)
let matmul_gather_t_into ?(beta = 0.0) ?idx_off a ~idx b c =
  check_gemm_operands "matmul_gather_t_into" a b c;
  let off, m = idx_window "matmul_gather_t_into" idx idx_off ~rows:b.shape.(0) in
  if b.shape.(0) <> m then
    shape_error "matmul_gather_t_into: %d indices vs %d rows of b" m b.shape.(0);
  let ak = a.shape.(1) and bn = b.shape.(1) in
  if c.shape.(0) <> ak || c.shape.(1) <> bn then
    shape_error "matmul_gather_t_into: output %dx%d vs expected %dx%d" c.shape.(0) c.shape.(1) ak bn;
  check_rows "matmul_gather_t_into" idx off m a.shape.(0);
  prescale c beta;
  let acols = a.shape.(1) and bcols = b.shape.(1) and ccols = c.shape.(1) in
  Domain_pool.parallel_for ~grain:(gemm_grain ~kn:m ~n:bn) ak (fun row_lo row_hi ->
      for i = row_lo to row_hi - 1 do
        gemm_row ~add:false ~adata:a.data ~abase:(a.offset + i) ~astride:acols ~arows:idx
          ~aoff:off ~bdata:b.data ~bbase:b.offset ~bks:bcols ~bjs:1 ~cdata:c.data
          ~crow:(c.offset + (i * ccols)) ~kn:m ~n:bn
      done)

(* --- Batched matrix-vector products (linear-fusion prologues) ---------
   Flat-buffer loops for the same reason as [gemm_row]: a cross-module
   [get2] per element costs a call under [-opaque]. *)

let check_mat_vec fn w v ~col =
  if ndim w <> 3 || ndim v <> 2 then shape_error "%s: expected a 3-D stack and a matrix" fn;
  let slices = w.shape.(0) and n = w.shape.(2) in
  if v.shape.(0) <> slices || col < 0 || col + n > v.shape.(1) then
    shape_error "%s: vectors %dx%d cannot supply columns [%d, %d) for %d slices" fn v.shape.(0)
      v.shape.(1) col (col + n) slices

let mat_vec_into w v ~col out =
  check_mat_vec "mat_vec_into" w v ~col;
  let slices = w.shape.(0) and k = w.shape.(1) and n = w.shape.(2) in
  if ndim out <> 2 || out.shape.(0) <> slices || out.shape.(1) <> k then
    shape_error "mat_vec_into: output is not %dx%d" slices k;
  let vcols = v.shape.(1) in
  for s = 0 to slices - 1 do
    let vrow = v.offset + (s * vcols) + col in
    for i = 0 to k - 1 do
      let wrow = w.offset + (((s * k) + i) * n) in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (w.data.(wrow + j) *. v.data.(vrow + j))
      done;
      out.data.(out.offset + (s * k) + i) <- !acc
    done
  done

let mat_vec_backward w v ~col ~dout ~dw ~dv =
  check_mat_vec "mat_vec_backward" w v ~col;
  let slices = w.shape.(0) and k = w.shape.(1) and n = w.shape.(2) in
  if dw.shape <> w.shape || dv.shape <> v.shape then
    shape_error "mat_vec_backward: gradients must match their parameters' shapes";
  if ndim dout <> 2 || dout.shape.(0) <> slices || dout.shape.(1) <> k then
    shape_error "mat_vec_backward: output gradient is not %dx%d" slices k;
  let vcols = v.shape.(1) in
  for s = 0 to slices - 1 do
    let vrow = v.offset + (s * vcols) + col and dvrow = dv.offset + (s * vcols) + col in
    for i = 0 to k - 1 do
      let gi = dout.data.(dout.offset + (s * k) + i) in
      if gi <> 0.0 then begin
        let wrow = w.offset + (((s * k) + i) * n) and dwrow = dw.offset + (((s * k) + i) * n) in
        for j = 0 to n - 1 do
          dw.data.(dwrow + j) <- dw.data.(dwrow + j) +. (gi *. v.data.(vrow + j));
          dv.data.(dvrow + j) <- dv.data.(dvrow + j) +. (gi *. w.data.(wrow + j))
        done
      end
    done
  done

let dot a b =
  if numel a <> numel b then shape_error "dot: %d vs %d elements" (numel a) (numel b);
  Domain_pool.parallel_for_reduce ~grain:elt_grain (numel a)
    ~init:(fun () -> 0.0)
    ~body:(fun acc lo hi ->
      let acc = ref acc in
      for i = lo to hi - 1 do
        acc := !acc +. (a.data.(a.offset + i) *. b.data.(b.offset + i))
      done;
      !acc)
    ~merge:( +. )

let outer a b =
  if ndim a <> 1 || ndim b <> 1 then shape_error "outer: operands must be 1-D";
  let m = a.shape.(0) and n = b.shape.(0) in
  let c = create [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      c.data.((i * n) + j) <- a.data.(a.offset + i) *. b.data.(b.offset + j)
    done
  done;
  c

let sum t =
  Domain_pool.parallel_for_reduce ~grain:elt_grain (numel t)
    ~init:(fun () -> 0.0)
    ~body:(fun acc lo hi ->
      let acc = ref acc in
      for i = lo to hi - 1 do
        acc := !acc +. t.data.(t.offset + i)
      done;
      !acc)
    ~merge:( +. )

let mean t =
  let n = numel t in
  if n = 0 then shape_error "mean: empty tensor";
  sum t /. float_of_int n

let max_value t =
  if numel t = 0 then shape_error "max_value: empty tensor";
  let acc = ref t.data.(t.offset) in
  for i = 1 to numel t - 1 do
    if t.data.(t.offset + i) > !acc then acc := t.data.(t.offset + i)
  done;
  !acc

let sum_rows m =
  let r = rows m and c = cols m in
  (* column-wise reduction: per-chunk column accumulators merged in chunk
     order, so the result is deterministic under any scheduling *)
  let acc =
    Domain_pool.parallel_for_reduce ~grain:(row_grain c) r
      ~init:(fun () -> Array.make c 0.0)
      ~body:(fun acc lo hi ->
        for i = lo to hi - 1 do
          let base = m.offset + (i * c) in
          for j = 0 to c - 1 do
            acc.(j) <- acc.(j) +. m.data.(base + j)
          done
        done;
        acc)
      ~merge:(fun a b ->
        for j = 0 to c - 1 do
          a.(j) <- a.(j) +. b.(j)
        done;
        a)
  in
  { shape = [| c |]; offset = 0; data = acc }

let sum_cols m =
  let r = rows m and c = cols m in
  let out = create [| r |] in
  Domain_pool.parallel_for ~grain:(row_grain c) r (fun lo hi ->
      for i = lo to hi - 1 do
        let base = m.offset + (i * c) in
        let acc = ref 0.0 in
        for j = 0 to c - 1 do
          acc := !acc +. m.data.(base + j)
        done;
        out.data.(i) <- !acc
      done);
  out

let argmax_rows m =
  let r = rows m and c = cols m in
  if c = 0 then shape_error "argmax_rows: zero columns";
  Array.init r (fun i ->
      let base = m.offset + (i * c) in
      let best = ref 0 in
      for j = 1 to c - 1 do
        if m.data.(base + j) > m.data.(base + !best) then best := j
      done;
      !best)

let gather_rows m idx =
  let c = cols m in
  let r = rows m in
  count_copied (Array.length idx * c * 8);
  let out = create_uninit [| Array.length idx; c |] in
  Domain_pool.parallel_for ~grain:(row_grain c) (Array.length idx) (fun lo hi ->
      for i = lo to hi - 1 do
        let src_row = idx.(i) in
        if src_row < 0 || src_row >= r then
          shape_error "gather_rows: row %d out of %d" src_row r;
        Array.blit m.data (m.offset + (src_row * c)) out.data (i * c) c
      done);
  out

let scatter_rows_set ~into idx src =
  let c = cols into in
  if cols src <> c then shape_error "scatter_rows_set: column mismatch";
  if rows src <> Array.length idx then shape_error "scatter_rows_set: row/index mismatch";
  count_copied (Array.length idx * c * 8);
  Array.iteri
    (fun i dst_row ->
      if dst_row < 0 || dst_row >= rows into then
        shape_error "scatter_rows_set: row %d out of %d" dst_row (rows into);
      Array.blit src.data (src.offset + (i * c)) into.data (into.offset + (dst_row * c)) c)
    idx

let scatter_rows_add_seq ~into idx src c =
  Array.iteri
    (fun i dst_row ->
      let sbase = src.offset + (i * c) and dbase = into.offset + (dst_row * c) in
      for j = 0 to c - 1 do
        into.data.(dbase + j) <- into.data.(dbase + j) +. src.data.(sbase + j)
      done)
    idx

let scatter_rows_add ~into idx src =
  let c = cols into in
  if cols src <> c then shape_error "scatter_rows_add: column mismatch";
  if rows src <> Array.length idx then shape_error "scatter_rows_add: row/index mismatch";
  let nrows = rows into in
  Array.iter
    (fun dst_row ->
      if dst_row < 0 || dst_row >= nrows then
        shape_error "scatter_rows_add: row %d out of %d" dst_row nrows)
    idx;
  let n = Array.length idx in
  (* Parallelized over *destination* row ranges, not over [idx]: each
     domain sweeps the whole index once and applies only the updates that
     land in its destination slice, so concurrent writes never touch the
     same row and duplicate indices accumulate in their sequential order —
     the pre-reduction analogue of the paper's atomic-free scatter. *)
  if Domain_pool.sequential () || n * c <= elt_grain then scatter_rows_add_seq ~into idx src c
  else
    Domain_pool.parallel_for ~grain:(row_grain (max 1 (n * c / max 1 nrows))) nrows
      (fun row_lo row_hi ->
        for i = 0 to n - 1 do
          let dst_row = idx.(i) in
          if dst_row >= row_lo && dst_row < row_hi then begin
            let sbase = src.offset + (i * c) and dbase = into.offset + (dst_row * c) in
            for j = 0 to c - 1 do
              into.data.(dbase + j) <- into.data.(dbase + j) +. src.data.(sbase + j)
            done
          end
        done)

let concat_cols a b =
  let r = rows a in
  if rows b <> r then shape_error "concat_cols: %d vs %d rows" r (rows b);
  let ca = cols a and cb = cols b in
  count_copied (r * (ca + cb) * 8);
  let out = create_uninit [| r; ca + cb |] in
  for i = 0 to r - 1 do
    Array.blit a.data (a.offset + (i * ca)) out.data (i * (ca + cb)) ca;
    Array.blit b.data (b.offset + (i * cb)) out.data ((i * (ca + cb)) + ca) cb
  done;
  out

let split_cols m k =
  let r = rows m and c = cols m in
  if k < 0 || k > c then shape_error "split_cols: %d out of %d columns" k c;
  count_copied (r * c * 8);
  let a = create_uninit [| r; k |] and b = create_uninit [| r; c - k |] in
  for i = 0 to r - 1 do
    Array.blit m.data (m.offset + (i * c)) a.data (i * k) k;
    Array.blit m.data (m.offset + (i * c) + k) b.data (i * (c - k)) (c - k)
  done;
  (a, b)

let max_abs_diff a b =
  if not (same_shape a b) then shape_error "max_abs_diff: shape mismatch";
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = Float.abs (a.data.(a.offset + i) -. b.data.(b.offset + i)) in
    if d > !acc then acc := d
  done;
  !acc

let approx_equal ?(tol = 1e-4) a b =
  same_shape a b
  &&
  let ok = ref true in
  (try
     for i = 0 to numel a - 1 do
       let x = a.data.(a.offset + i) and y = b.data.(b.offset + i) in
       let scale_ref = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
       if Float.abs (x -. y) > tol *. scale_ref then begin
         ok := false;
         raise Exit
       end
     done
   with Exit -> ());
  !ok

let pp fmt t =
  let n = numel t in
  Format.fprintf fmt "tensor[%s](" (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)));
  let shown = min n 8 in
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    Format.fprintf fmt "%g" t.data.(t.offset + i)
  done;
  if n > shown then Format.fprintf fmt ", ...";
  Format.fprintf fmt ")"
