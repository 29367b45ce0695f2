(* Fused access-scheme GEMM kernels and the plan-lifetime memory planner:
   fused kernels cross-checked against their materialize-then-matmul
   equivalents on randomized shapes and index vectors at several pool
   sizes; Buffer_plan colorings checked for live-range soundness; the
   arena execution path checked for peak-memory savings, steady-state
   zero allocation and output equivalence against an identity-colored
   arena (one slot per buffer, nothing freed). *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Memory = Hector_gpu.Memory
module Engine = Hector_gpu.Engine
module Plan = Hector_core.Plan
module Bp = Hector_core.Buffer_plan
module Compiler = Hector_core.Compiler
module Ir = Hector_core.Inter_ir
module Mat = Hector_core.Materialization
module Lf = Hector_core.Linear_fusion
module Autodiff = Hector_core.Autodiff
module Session = Hector_runtime.Session
module Exec = Hector_runtime.Exec
module Env = Hector_runtime.Env
module Train = Hector_runtime.Train
module Models = Hector_models.Model_defs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

let randn rng shape =
  let t = T.zeros shape in
  let flat = T.view t [| T.numel t |] in
  for i = 0 to T.numel t - 1 do
    T.set1 flat i (Rng.gaussian rng)
  done;
  t

let rand_idx rng ~len ~bound = Array.init len (fun _ -> Rng.int rng bound)

(* --- fused kernels == materialized reference, bit for bit ----------- *)

(* The fused kernels are specified to preserve the exact floating-point
   operation order of the two-kernel scheme, so the tolerance is zero. *)

(* [m] rows split into one to four segments, some possibly empty. *)
let random_offsets rng m =
  let cuts = Array.init (Rng.int rng 4) (fun _ -> Rng.int rng (m + 1)) in
  Array.sort compare cuts;
  Array.concat [ [| 0 |]; cuts; [| m |] ]

let segments offsets = Array.length offsets - 1

(* A stack of [s] copies of the matrix [b]: a segmented call over it must
   equal the one-relation call on [b]. *)
let stack_of b s = T.init [| s; T.rows b; T.cols b |] (fun ix -> T.get2 b ix.(1) ix.(2))

let test_gather_gemm () =
  let rng = Rng.create 7 in
  for case = 0 to 19 do
    let na = 1 + Rng.int rng 40 in
    let m = Rng.int rng 60 in
    let k = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 12 in
    let trans_b = case mod 2 = 0 in
    let a = randn rng [| na; k |] in
    let b = if trans_b then randn rng [| n; k |] else randn rng [| k; n |] in
    let idx = rand_idx rng ~len:m ~bound:na in
    let beta = if case mod 3 = 0 then 1.0 else 0.0 in
    let reference = randn rng [| m; n |] in
    let expected = T.copy reference in
    T.matmul_into ~trans_b ~beta (T.gather_rows a idx) b expected;
    let offsets = random_offsets rng m in
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = T.copy reference and cs = T.copy reference in
            T.matmul_gather_into ~trans_b ~beta a ~idx b c;
            (* the segmented form overwrites: beta = 0 only *)
            if beta = 0.0 then
              T.segment_gather_into ~trans_b ~offsets a ~idx (stack_of b (segments offsets)) cs
            else T.matmul_gather_into ~trans_b ~beta a ~idx b cs;
            check_bool
              (Printf.sprintf "gather case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected c = 0.0 && T.max_abs_diff expected cs = 0.0)))
      [ 1; 2; 4 ]
  done

let test_scatter_gemm () =
  let rng = Rng.create 8 in
  for case = 0 to 19 do
    let m = Rng.int rng 60 in
    let nc = 1 + Rng.int rng 40 in
    let k = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 12 in
    let trans_b = case mod 2 = 0 in
    let a = randn rng [| m; k |] in
    let b = if trans_b then randn rng [| n; k |] else randn rng [| k; n |] in
    let idx = rand_idx rng ~len:m ~bound:nc in
    let base = randn rng [| nc; n |] in
    let expected = T.copy base in
    if m > 0 then T.scatter_rows_add ~into:expected idx (T.matmul ~trans_b a b);
    let offsets = random_offsets rng m in
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = T.copy base and cs = T.copy base in
            T.segment_scatter_add_into ~trans_b ~offsets:[| 0; m |] a (stack_of b 1) ~idx c;
            T.segment_scatter_add_into ~trans_b ~offsets a (stack_of b (segments offsets)) ~idx cs;
            check_bool
              (Printf.sprintf "scatter case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected c = 0.0 && T.max_abs_diff expected cs = 0.0)))
      [ 1; 2; 4 ]
  done

let test_gather_t_gemm () =
  let rng = Rng.create 9 in
  for case = 0 to 19 do
    let na = 1 + Rng.int rng 40 in
    let m = Rng.int rng 60 in
    let k = 1 + Rng.int rng 12 in
    let n = 1 + Rng.int rng 12 in
    let a = randn rng [| na; k |] in
    let b = randn rng [| m; n |] in
    let idx = rand_idx rng ~len:m ~bound:na in
    let base = randn rng [| k; n |] in
    let expected = T.copy base in
    T.matmul_into ~trans_a:true ~beta:1.0 (T.gather_rows a idx) b expected;
    (* segment s of the stack sums only its own rows *)
    let offsets = random_offsets rng m in
    let s = segments offsets in
    let expected_s = stack_of base s in
    for sg = 0 to s - 1 do
      let lo = offsets.(sg) and len = offsets.(sg + 1) - offsets.(sg) in
      if len > 0 then
        T.matmul_into ~trans_a:true ~beta:1.0
          (T.gather_rows a (Array.sub idx lo len))
          (T.sub_rows b lo len) (T.slice0 expected_s sg)
    done;
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = stack_of base 1 and cs = stack_of base s in
            T.segment_gather_t_into ~beta:1.0 ~offsets:[| 0; m |] a ~idx b c;
            T.segment_gather_t_into ~beta:1.0 ~offsets a ~idx b cs;
            check_bool
              (Printf.sprintf "gather_t case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected (T.slice0 c 0) = 0.0 && T.max_abs_diff expected_s cs = 0.0)))
      [ 1; 2; 4 ]
  done

let test_bad_indices_raise () =
  let a = T.zeros [| 4; 3 |] and b = T.zeros [| 3; 2 |] in
  let c = T.zeros [| 2; 2 |] in
  let raises f = match f () with exception T.Shape_error _ -> true | _ -> false in
  let scatter a ~idx = T.segment_scatter_add_into ~offsets:[| 0; 2 |] a (stack_of b 1) ~idx c in
  check_bool "gather idx out of range" true
    (raises (fun () -> T.matmul_gather_into a ~idx:[| 0; 4 |] b c));
  check_bool "scatter idx out of range" true
    (raises (fun () -> scatter (T.zeros [| 2; 3 |]) ~idx:[| 0; 2 |]));
  check_bool "gather idx negative" true
    (raises (fun () -> T.matmul_gather_into a ~idx:[| -1; 0 |] b c));
  check_bool "scatter idx count mismatch" true
    (raises (fun () -> scatter (T.zeros [| 2; 3 |]) ~idx:[| 0 |]));
  let w2 = T.zeros [| 2; 3; 2 |] in
  let gather ?rep offsets idx = T.segment_gather_into ?rep ~offsets a ~idx w2 c in
  check_bool "offsets past the end" true (raises (fun () -> gather [| 0; 1; 3 |] [| 0; 1 |]));
  check_bool "offsets not from 0" true (raises (fun () -> gather [| 1; 1; 2 |] [| 0; 1 |]));
  check_bool "offsets fall" true
    (raises (fun () -> T.segment_gather_into ~offsets:[| 0; 2; 1; 2 |] a ~idx:[| 0; 1 |]
                         (T.zeros [| 3; 3; 2 |]) c));
  check_bool "segments vs slices" true (raises (fun () -> gather [| 0; 2 |] [| 0; 1 |]));
  check_bool "scatter offsets past the end" true
    (raises (fun () ->
         T.segment_scatter_add_into ~offsets:[| 0; 1; 3 |] (T.zeros [| 2; 3 |]) w2 ~idx:[| 0; 1 |] c));
  check_bool "gather_t offsets past the end" true
    (raises (fun () ->
         T.segment_gather_t_into ~offsets:[| 0; 3 |] a ~idx:[| 0; 1 |] (T.zeros [| 2; 2 |])
           (T.zeros [| 1; 3; 2 |])));
  check_bool "a representative with another row" true
    (raises (fun () -> gather ~rep:[| 0; 0 |] [| 0; 2; 2 |] [| 0; 1 |]));
  check_bool "a representative in another segment" true
    (raises (fun () -> gather ~rep:[| 0; 0 |] [| 0; 1; 2 |] [| 1; 1 |]));
  check_bool "a representative that copies" true
    (raises (fun () ->
         T.segment_gather_into ~rep:[| 1; 2; 2 |] ~offsets:[| 0; 3 |] a ~idx:[| 1; 1; 1 |]
           (T.zeros [| 1; 3; 2 |]) (T.zeros [| 3; 2 |])));
  check_bool "representatives vs rows" true
    (raises (fun () -> gather ~rep:[| 0 |] [| 0; 2; 2 |] [| 1; 1 |]));
  check_bool "a short scale" true
    (raises (fun () ->
         T.segment_gather_into ~scale:(T.zeros [| 1; 1 |]) ~offsets:[| 0; 2; 2 |] a ~idx:[| 1; 1 |]
           w2 c));
  check_bool "a well-formed call" false (raises (fun () -> gather ~rep:[| 1; 1 |] [| 0; 2; 2 |] [| 1; 1 |]))

(* --- every GEMM entry point == a textbook triple loop, bit for bit ---

   The oracle is written here, independent of the kernels: c(i, j) starts
   at its beta-scaled value, then adds a(i, k) * b(k, j) for k ascending,
   skipping a(i, k) = 0.0.  Widths cross the kernel's 8-column register
   block and its tail; A carries exact zeros (and -0.0) and one all-zero
   logical column whose B row is infinite, so a kernel that dropped the
   skip would turn that column into NaNs. *)

let naive ~m ~k ~n ~a_at ~b_at ~start =
  Array.init m (fun i ->
      Array.init n (fun j ->
          let acc = ref (start i j) in
          for kk = 0 to k - 1 do
            let aik = a_at i kk in
            if aik <> 0.0 then acc := !acc +. (aik *. b_at kk j)
          done;
          !acc))

let check_bits name expected c =
  let got = T.to_2d c in
  check_int (name ^ ": rows") (Array.length expected) (Array.length got);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j e ->
          if Int64.bits_of_float e <> Int64.bits_of_float got.(i).(j) then
            Alcotest.failf "%s: (%d, %d) is %h, oracle %h" name i j got.(i).(j) e)
        row)
    expected

(* Gaussian entries with about a quarter exact zeros, some of them -0.0. *)
let sparse_randn rng shape =
  let t = randn rng shape in
  let flat = T.view t [| T.numel t |] in
  for i = 0 to T.numel t - 1 do
    match Rng.int rng 8 with 0 -> T.set1 flat i 0.0 | 1 -> T.set1 flat i (-0.0) | _ -> ()
  done;
  t

let set_row t r v = for j = 0 to T.cols t - 1 do T.set t [| r; j |] v done
let set_col t c v = for i = 0 to T.rows t - 1 do T.set t [| i; c |] v done

let beta_start ~beta c0 i j =
  if beta = 0.0 then 0.0 else if beta = 1.0 then c0.(i).(j) else beta *. c0.(i).(j)

let widths = [ 1; 7; 8; 9; 16; 17; 40 ]
let heights = [ 0; 3; 150 ]
let betas = [ 0.0; 1.0; 0.5 ]

(* Runs [kernel c] on a fresh copy of [base] at 1, 2 and 4 domains. *)
let at_domains name base expected kernel =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let c = T.copy base in
          kernel c;
          check_bits (Printf.sprintf "%s (%d domains)" name d) expected c))
    [ 1; 2; 4 ]

(* B as the kernels read it: [k × n], or [n × k] when transposed, with the
   logical row [kz] infinite. *)
let b_operand rng ~trans_b ~k ~n ~kz =
  let b = if trans_b then randn rng [| n; k |] else randn rng [| k; n |] in
  (if trans_b then set_col b kz infinity else set_row b kz infinity);
  let b2 = T.to_2d b in
  (b, fun kk j -> if trans_b then b2.(j).(kk) else b2.(kk).(j))

let test_matmul_oracle () =
  let rng = Rng.create 21 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (trans_a, trans_b) ->
              List.iter
                (fun beta ->
                  let k = 1 + Rng.int rng 20 in
                  let kz = Rng.int rng k in
                  let a = sparse_randn rng (if trans_a then [| k; m |] else [| m; k |]) in
                  if trans_a then set_row a kz 0.0 else set_col a kz 0.0;
                  let b, b_at = b_operand rng ~trans_b ~k ~n ~kz in
                  let base = randn rng [| m; n |] in
                  let a2 = T.to_2d a and c0 = T.to_2d base in
                  let expected =
                    naive ~m ~k ~n ~b_at ~start:(beta_start ~beta c0) ~a_at:(fun i kk ->
                        if trans_a then a2.(kk).(i) else a2.(i).(kk))
                  in
                  at_domains
                    (Printf.sprintf "matmul m=%d k=%d n=%d ta=%b tb=%b beta=%g" m k n trans_a
                       trans_b beta)
                    base expected
                    (fun c -> T.matmul_into ~trans_a ~trans_b ~beta a b c))
                betas)
            [ (false, false); (true, false); (false, true); (true, true) ])
        heights)
    widths

let test_gather_oracle () =
  let rng = Rng.create 22 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun trans_b ->
              List.iter
                (fun beta ->
                  let na = 1 + Rng.int rng 30 and k = 1 + Rng.int rng 20 in
                  let kz = Rng.int rng k in
                  let a = sparse_randn rng [| na; k |] in
                  set_col a kz 0.0;
                  let b, b_at = b_operand rng ~trans_b ~k ~n ~kz in
                  let idx = rand_idx rng ~len:m ~bound:na in
                  let base = randn rng [| m; n |] in
                  let a2 = T.to_2d a and c0 = T.to_2d base in
                  let expected =
                    naive ~m ~k ~n ~b_at ~start:(beta_start ~beta c0) ~a_at:(fun i kk ->
                        a2.(idx.(i)).(kk))
                  in
                  at_domains
                    (Printf.sprintf "gather m=%d k=%d n=%d tb=%b beta=%g" m k n trans_b beta)
                    base expected
                    (fun c -> T.matmul_gather_into ~trans_b ~beta a ~idx b c))
                betas)
            [ false; true ])
        heights)
    widths

let test_scatter_oracle () =
  let rng = Rng.create 23 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun trans_b ->
              let nc = 1 + Rng.int rng 30 and k = 1 + Rng.int rng 20 in
              let kz = Rng.int rng k in
              let a = sparse_randn rng [| m; k |] in
              set_col a kz 0.0;
              let b, b_at = b_operand rng ~trans_b ~k ~n ~kz in
              let idx = rand_idx rng ~len:m ~bound:nc in
              let base = randn rng [| nc; n |] in
              let a2 = T.to_2d a in
              (* each product row is summed from 0.0, then added into its
                 destination in index order *)
              let rows =
                naive ~m ~k ~n ~b_at ~start:(fun _ _ -> 0.0) ~a_at:(fun i kk -> a2.(i).(kk))
              in
              let expected = T.to_2d base in
              Array.iteri
                (fun i dst ->
                  Array.iteri (fun j v -> expected.(dst).(j) <- expected.(dst).(j) +. v) rows.(i))
                idx;
              at_domains
                (Printf.sprintf "scatter m=%d k=%d n=%d tb=%b" m k n trans_b)
                base expected
                (fun c ->
                  T.segment_scatter_add_into ~trans_b ~offsets:[| 0; m |] a (stack_of b 1) ~idx c))
            [ false; true ])
        heights)
    widths

let test_gather_t_oracle () =
  let rng = Rng.create 24 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun beta ->
              let na = 1 + Rng.int rng 30 and ak = 1 + Rng.int rng 20 in
              let a = sparse_randn rng [| na; ak |] in
              let b = randn rng [| m; n |] in
              let idx = rand_idx rng ~len:m ~bound:na in
              (* the reduction runs over the m gathered rows: zero the
                 source row of one of them and make its B row infinite *)
              if m > 0 then begin
                let kz = Rng.int rng m in
                set_row a idx.(kz) 0.0;
                set_row b kz infinity
              end;
              let base = randn rng [| ak; n |] in
              let a2 = T.to_2d a and b2 = T.to_2d b and c0 = T.to_2d base in
              let expected =
                naive ~m:ak ~k:m ~n ~start:(beta_start ~beta c0)
                  ~a_at:(fun i kk -> a2.(idx.(kk)).(i))
                  ~b_at:(fun kk j -> b2.(kk).(j))
              in
              at_domains
                (Printf.sprintf "gather_t m=%d k=%d n=%d beta=%g" m ak n beta)
                base expected
                (fun c ->
                  T.segment_gather_t_into ~beta ~offsets:[| 0; m |] a ~idx b
                    (T.view c [| 1; ak; n |])))
            betas)
        heights)
    widths

(* --- the segmented entry points == a textbook loop per segment -------

   Three relations, the first, middle or last of them empty.  Gather and
   scatter indices are all distinct, all one row, or random, and the
   gathered rows of A include one of +0.0, one of -0.0, one holding an
   infinity and one holding a NaN.  The gather runs without
   representatives, with each (segment, row) pair's first row as its
   representative (as the executor passes it) and with its last, so a
   copy made before its representative is computed reads a zeroed row;
   per-row scales must land after the copies. *)

let segment_layouts m =
  let h = m / 2 in
  [ ("empty first", [| 0; 0; h; m |]); ("empty middle", [| 0; h; h; m |]);
    ("empty last", [| 0; h; m; m |]) ]

let segment_at offsets i =
  let s = ref 0 in
  while offsets.(!s + 1) <= i do incr s done;
  !s

(* [na] rows: rows 0-3 are the special ones, the rest sparse Gaussian. *)
let special_rows rng ~na ~k =
  let a = sparse_randn rng [| na; k |] in
  set_row a 0 0.0;
  set_row a 1 (-0.0);
  T.set a [| 2; Rng.int rng k |] infinity;
  T.set a [| 3; Rng.int rng k |] nan;
  a

let index_patterns rng ~m ~bound =
  [ ("distinct", Array.init m Fun.id); ("one row", Array.make m (Rng.int rng 4));
    ("random", rand_idx rng ~len:m ~bound) ]

(* Each row's representative: the first (or last) row of its segment
   gathering the same row of A. *)
let representatives ~last offsets idx =
  let m = Array.length idx in
  let rep = Array.make m 0 and seen = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let key = (segment_at offsets i, idx.(i)) in
      match Hashtbl.find_opt seen key with
      | Some r -> rep.(i) <- r
      | None ->
          Hashtbl.add seen key i;
          rep.(i) <- i)
    (if last then List.init m (fun i -> m - 1 - i) else List.init m Fun.id);
  rep

(* A [\[|3; k; n|\]] stack as the kernels read it (transposed slices when
   [trans_b]) and its logical reader per slice, each slice's logical row
   [kz] infinite. *)
let stack_operand rng ~trans_b ~k ~n ~kz =
  let slices = Array.init 3 (fun _ -> b_operand rng ~trans_b ~k ~n ~kz) in
  let b0 = fst slices.(0) in
  ( T.init [| 3; T.rows b0; T.cols b0 |] (fun ix -> T.get2 (fst slices.(ix.(0))) ix.(1) ix.(2)),
    fun s -> snd slices.(s) )

(* Rows [offsets.(s), offsets.(s+1)) of [naive] over each segment with
   its own slice. *)
let naive_segments offsets ~k ~n ~a_at ~b_at ~start =
  Array.concat
    (List.init (Array.length offsets - 1) (fun s ->
         let lo = offsets.(s) in
         naive ~m:(offsets.(s + 1) - lo) ~k ~n ~b_at:(b_at s)
           ~a_at:(fun i kk -> a_at (lo + i) kk)
           ~start:(fun i j -> start (lo + i) j)))

let test_segment_gather_oracle () =
  let rng = Rng.create 26 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (layout, offsets) ->
              let k = 1 + Rng.int rng 20 in
              let kz = Rng.int rng k and na = m + 4 in
              let trans_b = Rng.int rng 2 = 0 in
              let a = special_rows rng ~na ~k in
              set_col a kz 0.0;
              let w, w_at = stack_operand rng ~trans_b ~k ~n ~kz in
              let a2 = T.to_2d a in
              let factors = sparse_randn rng [| m; 2 |] in
              List.iter
                (fun (pattern, idx) ->
                  let rows =
                    naive_segments offsets ~k ~n ~b_at:w_at ~start:(fun _ _ -> 0.0)
                      ~a_at:(fun i kk -> a2.(idx.(i)).(kk))
                  in
                  let scaled =
                    Array.mapi (fun i row -> Array.map (fun v -> v *. T.get2 factors i 0) row) rows
                  in
                  List.iter
                    (fun (reps, rep, scale) ->
                      at_domains
                        (Printf.sprintf "segment gather m=%d k=%d n=%d tb=%b %s %s %s%s" m k n
                           trans_b layout pattern reps
                           (if scale = None then "" else " scaled"))
                        (randn rng [| m; n |])
                        (if scale = None then rows else scaled)
                        (fun c -> T.segment_gather_into ~trans_b ?rep ?scale ~offsets a ~idx w c))
                    [
                      ("no reps", None, None);
                      ("first reps", Some (representatives ~last:false offsets idx), None);
                      ("first reps", Some (representatives ~last:false offsets idx), Some factors);
                      ("last reps", Some (representatives ~last:true offsets idx), Some factors);
                    ])
                (index_patterns rng ~m ~bound:na))
            (segment_layouts m))
        heights)
    [ 1; 8; 9; 17 ]

let test_segment_scatter_oracle () =
  let rng = Rng.create 27 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (layout, offsets) ->
              let k = 1 + Rng.int rng 20 and nc = m + 4 in
              let kz = Rng.int rng k and trans_b = Rng.int rng 2 = 0 in
              let a = special_rows rng ~na:(max m 4) ~k in
              let a = T.sub_rows a 0 m in
              set_col a kz 0.0;
              let w, w_at = stack_operand rng ~trans_b ~k ~n ~kz in
              let a2 = T.to_2d a in
              (* each product row is summed from 0.0, then added into its
                 destination, segments and rows in order *)
              let rows =
                naive_segments offsets ~k ~n ~b_at:w_at ~start:(fun _ _ -> 0.0)
                  ~a_at:(fun i kk -> a2.(i).(kk))
              in
              List.iter
                (fun (pattern, idx) ->
                  let base = randn rng [| nc; n |] in
                  let expected = T.to_2d base in
                  Array.iteri
                    (fun i dst ->
                      Array.iteri (fun j v -> expected.(dst).(j) <- expected.(dst).(j) +. v) rows.(i))
                    idx;
                  at_domains
                    (Printf.sprintf "segment scatter m=%d k=%d n=%d tb=%b %s %s" m k n trans_b
                       layout pattern)
                    base expected
                    (fun c -> T.segment_scatter_add_into ~trans_b ~offsets a w ~idx c))
                (index_patterns rng ~m ~bound:nc))
            (segment_layouts m))
        heights)
    [ 1; 8; 9; 17 ]

(* [c]'s slices stacked into one [\[|3·k; n|\]] matrix, for {!check_bits}. *)
let flat_stack c = T.reshape c [| T.dim c 0 * T.dim c 1; T.dim c 2 |]

let test_segment_gather_t_oracle () =
  let rng = Rng.create 28 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (layout, offsets) ->
              let ak = 1 + Rng.int rng 20 and na = m + 4 in
              let beta = List.nth betas (Rng.int rng 3) in
              let a = special_rows rng ~na ~k:ak in
              let b = randn rng [| m; n |] in
              let a2 = T.to_2d a and b2 = T.to_2d b in
              List.iter
                (fun (pattern, idx) ->
                  let base = randn rng [| 3; ak; n |] in
                  let c0 = T.to_2d (flat_stack base) in
                  let expected =
                    Array.concat
                      (List.init 3 (fun s ->
                           let lo = offsets.(s) in
                           naive ~m:ak ~k:(offsets.(s + 1) - lo) ~n
                             ~start:(fun i j -> beta_start ~beta c0 ((s * ak) + i) j)
                             ~a_at:(fun i kk -> a2.(idx.(lo + kk)).(i))
                             ~b_at:(fun kk j -> b2.(lo + kk).(j))))
                  in
                  List.iter
                    (fun d ->
                      with_domains d (fun () ->
                          let c = T.copy base in
                          T.segment_gather_t_into ~beta ~offsets a ~idx b c;
                          check_bits
                            (Printf.sprintf "segment gather_t m=%d k=%d n=%d beta=%g %s %s (%d domains)"
                               m ak n beta layout pattern d)
                            expected (flat_stack c)))
                    [ 1; 2; 4 ])
                (index_patterns rng ~m ~bound:na))
            (segment_layouts m))
        heights)
    [ 1; 8; 9; 17 ]

(* --- pair-summed GEMMs == pair sums, then a textbook loop -----------

   With [~pairs], the edge operand's rows are summed into pair rows first:
   pair row p is 0.0 plus every row i with pairs.(i) = p, i ascending.
   The oracle builds those sums with its own loop, then runs the textbook
   GEMM on them.  Pairs are all one row, all repeated, or random (some
   pairs then have no row and stay 0.0); the edge operand carries +0.0 and
   -0.0 entries (a pair of -0.0 rows sums to +0.0); relations are empty
   first, middle or last.  The widest case runs the parallel sum. *)

let pair_layouts rng m =
  let half = max 1 (m / 2) and few = (m / 3) + 1 in
  [ ("one-row pairs", m, Array.init m Fun.id);
    ("every pair repeated", half, Array.init m (fun i -> i mod half));
    ("random pairs", few, rand_idx rng ~len:m ~bound:few) ]

let pair_sums ~pairs ~n pair_of rows =
  let d = Array.make_matrix pairs n 0.0 in
  Array.iteri (fun i p -> Array.iteri (fun j v -> d.(p).(j) <- d.(p).(j) +. v) rows.(i)) pair_of;
  d

let test_pair_gather_t_oracle () =
  let rng = Rng.create 30 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (pairing, npairs, pair_of) ->
              List.iter
                (fun (layout, offsets) ->
                  let ak = 1 + Rng.int rng 20 and na = npairs + 4 in
                  let beta = List.nth betas (Rng.int rng 3) in
                  let a = special_rows rng ~na ~k:ak in
                  let b = sparse_randn rng [| m; n |] in
                  if m > 0 then set_row b 0 (-0.0);
                  let a2 = T.to_2d a in
                  let d = pair_sums ~pairs:npairs ~n pair_of (T.to_2d b) in
                  List.iter
                    (fun (pattern, idx) ->
                      let base = randn rng [| 3; ak; n |] in
                      let c0 = T.to_2d (flat_stack base) in
                      let expected =
                        Array.concat
                          (List.init 3 (fun s ->
                               let lo = offsets.(s) in
                               naive ~m:ak ~k:(offsets.(s + 1) - lo) ~n
                                 ~start:(fun i j -> beta_start ~beta c0 ((s * ak) + i) j)
                                 ~a_at:(fun i kk -> a2.(idx.(lo + kk)).(i))
                                 ~b_at:(fun kk j -> d.(lo + kk).(j))))
                      in
                      List.iter
                        (fun dom ->
                          with_domains dom (fun () ->
                              let c = T.copy base in
                              T.segment_gather_t_into ~beta ~pairs:pair_of ~offsets a ~idx b c;
                              check_bits
                                (Printf.sprintf "pair gather_t m=%d k=%d n=%d %s %s %s (%d domains)"
                                   m ak n pairing layout pattern dom)
                                expected (flat_stack c)))
                        [ 1; 2; 4 ])
                    (index_patterns rng ~m:npairs ~bound:na))
                (segment_layouts npairs))
            (pair_layouts rng m))
        heights)
    [ 1; 9; 40 ]

let test_pair_scatter_oracle () =
  let rng = Rng.create 31 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (pairing, npairs, pair_of) ->
              List.iter
                (fun (layout, offsets) ->
                  (* wide enough that 150 rows take the parallel sum *)
                  let k = 28 + Rng.int rng 12 and nc = npairs + 4 in
                  let kz = Rng.int rng k and trans_b = Rng.int rng 2 = 0 in
                  let a = sparse_randn rng [| m; k |] in
                  if m > 0 then set_row a 0 (-0.0);
                  let w, w_at = stack_operand rng ~trans_b ~k ~n ~kz in
                  let d = pair_sums ~pairs:npairs ~n:k pair_of (T.to_2d a) in
                  Array.iter (fun row -> row.(kz) <- 0.0) d;
                  let a = T.init [| m; k |] (fun ix -> if ix.(1) = kz then 0.0 else T.get a ix) in
                  (* each pair's product row summed from 0.0, then added into
                     its destination, segments and pairs in order *)
                  let rows =
                    naive_segments offsets ~k ~n ~b_at:w_at ~start:(fun _ _ -> 0.0)
                      ~a_at:(fun i kk -> d.(i).(kk))
                  in
                  List.iter
                    (fun (pattern, idx) ->
                      let base = randn rng [| nc; n |] in
                      let expected = T.to_2d base in
                      Array.iteri
                        (fun p dst ->
                          Array.iteri (fun j v -> expected.(dst).(j) <- expected.(dst).(j) +. v) rows.(p))
                        idx;
                      at_domains
                        (Printf.sprintf "pair scatter m=%d k=%d n=%d tb=%b %s %s %s" m k n trans_b
                           pairing layout pattern)
                        base expected
                        (fun c -> T.segment_scatter_add_into ~trans_b ~pairs:pair_of ~offsets a w ~idx c))
                    (index_patterns rng ~m:npairs ~bound:nc))
                (segment_layouts npairs))
            (pair_layouts rng m))
        heights)
    [ 1; 9; 40 ]

let test_segment_matmul_oracle () =
  let rng = Rng.create 29 in
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun (layout, offsets) ->
              let k = 1 + Rng.int rng 20 in
              let kz = Rng.int rng k and trans_b = Rng.int rng 2 = 0 in
              let beta = List.nth betas (Rng.int rng 3) in
              let a = special_rows rng ~na:(max m 4) ~k in
              let a = T.sub_rows a 0 m in
              set_col a kz 0.0;
              let a2 = T.to_2d a in
              (* rows of [c] segmented, [w] the stack *)
              let w, w_at = stack_operand rng ~trans_b ~k ~n ~kz in
              let base = randn rng [| m; n |] in
              let c0 = T.to_2d base in
              at_domains
                (Printf.sprintf "segment matmul m=%d k=%d n=%d tb=%b beta=%g %s" m k n trans_b beta
                   layout)
                base
                (naive_segments offsets ~k ~n ~b_at:w_at ~start:(beta_start ~beta c0)
                   ~a_at:(fun i kk -> a2.(i).(kk)))
                (fun c -> T.segment_matmul_into ~trans_b ~beta ~offsets a w c);
              (* transposed: the reduction runs over the segment's rows of
                 [a] and [b], and [c] is the stack *)
              let b = if trans_b then randn rng [| n; m |] else randn rng [| m; n |] in
              let b2 = T.to_2d b in
              let base = randn rng [| 3; k; n |] in
              let c0 = T.to_2d (flat_stack base) in
              let expected =
                Array.concat
                  (List.init 3 (fun s ->
                       let lo = offsets.(s) in
                       naive ~m:k ~k:(offsets.(s + 1) - lo) ~n
                         ~start:(fun i j -> beta_start ~beta c0 ((s * k) + i) j)
                         ~a_at:(fun i kk -> a2.(lo + kk).(i))
                         ~b_at:(fun kk j -> if trans_b then b2.(j).(lo + kk) else b2.(lo + kk).(j))))
              in
              List.iter
                (fun d ->
                  with_domains d (fun () ->
                      let c = T.copy base in
                      T.segment_matmul_into ~trans_a:true ~trans_b ~beta ~offsets a b c;
                      check_bits
                        (Printf.sprintf "segment matmul ta m=%d k=%d n=%d tb=%b beta=%g %s (%d domains)"
                           m k n trans_b beta layout d)
                        expected (flat_stack c)))
                [ 1; 2; 4 ])
            (segment_layouts m))
        heights)
    [ 1; 8; 9; 17 ]

(* --- outputs overlapping an operand are rejected --------------------- *)

let raises_shape f = match f () with exception T.Shape_error _ -> true | () -> false

(* Views of one 4x2 store: rows [0, 2) and [1, 3) overlap, [0, 2) and
   [2, 4) do not. *)
let aliasing_case check () =
  let store = T.zeros [| 4; 2 |] in
  check ~lo:(T.sub_rows store 0 2) ~mid:(T.sub_rows store 1 2) ~hi:(T.sub_rows store 2 2)
    ~w:(T.ones [| 2; 2 |])

let test_alias_matmul =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      check_bool "c == a" true (raises_shape (fun () -> T.matmul_into lo w lo));
      check_bool "c overlaps b" true (raises_shape (fun () -> T.matmul_into w lo mid));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.matmul_into lo w hi)))

let test_alias_gather =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      check_bool "c overlaps a" true
        (raises_shape (fun () -> T.matmul_gather_into lo ~idx:[| 0; 1 |] w mid));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.matmul_gather_into lo ~idx:[| 0; 1 |] w hi)))

(* [lo] starts its store, so it is also the one-slice stack [lo3]. *)
let test_alias_scatter =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      let lo3 = T.view lo [| 1; 2; 2 |] and offsets = [| 0; 2 |] in
      check_bool "c overlaps b" true
        (raises_shape (fun () -> T.segment_scatter_add_into ~offsets w lo3 ~idx:[| 0; 1 |] mid));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.segment_scatter_add_into ~offsets w lo3 ~idx:[| 0; 1 |] hi)))

let test_alias_gather_t =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      let lo3 = T.view lo [| 1; 2; 2 |] and offsets = [| 0; 2 |] in
      check_bool "c overlaps a" true
        (raises_shape (fun () ->
             T.segment_gather_t_into ~beta:1.0 ~offsets mid ~idx:[| 0; 1 |] w lo3));
      check_bool "c overlaps b" true
        (raises_shape (fun () -> T.segment_gather_t_into ~offsets w ~idx:[| 0; 1 |] mid lo3));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.segment_gather_t_into ~offsets hi ~idx:[| 0; 1 |] w lo3)))

let test_alias_scatter_rows_add =
  aliasing_case (fun ~lo ~mid ~hi ~w:_ ->
      check_bool "into == src" true (raises_shape (fun () -> T.scatter_rows_add ~into:lo [| 0; 1 |] lo));
      check_bool "into overlaps src" true
        (raises_shape (fun () -> T.scatter_rows_add ~into:mid [| 0; 1 |] lo));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.scatter_rows_add ~into:hi [| 0; 1 |] lo)))

let test_pair_sums_validate () =
  let a = T.ones [| 3; 2 |] and w = T.ones [| 1; 2; 2 |] in
  check_bool "a pair beyond idx" true
    (raises_shape (fun () ->
         T.segment_scatter_add_into ~pairs:[| 0; 2; 1 |] ~offsets:[| 0; 2 |] a w ~idx:[| 0; 1 |]
           (T.zeros [| 2; 2 |])));
  check_bool "one pair per row" true
    (raises_shape (fun () ->
         T.segment_gather_t_into ~pairs:[| 0; 1 |] ~offsets:[| 0; 2 |] a ~idx:[| 0; 1 |] a
           (T.zeros [| 1; 2; 2 |])));
  check_bool "a well-formed call" false
    (raises_shape (fun () ->
         T.segment_gather_t_into ~pairs:[| 0; 1; 0 |] ~offsets:[| 0; 2 |] a ~idx:[| 0; 1 |] a
           (T.zeros [| 1; 2; 2 |])))

(* --- the linear-fusion mat-vec kernels == element-wise loops --------- *)

let test_mat_vec_oracle () =
  let rng = Rng.create 25 in
  let slices = 5 and k = 6 and n = 9 in
  let w = sparse_randn rng [| slices; k; n |] and v = randn rng [| slices; 2 * n |] in
  List.iter
    (fun col ->
      let out = T.zeros [| slices; k |] in
      T.mat_vec_into w v ~col out;
      let expected =
        Array.init slices (fun s ->
            Array.init k (fun i ->
                let acc = ref 0.0 in
                for j = 0 to n - 1 do
                  acc := !acc +. (T.get w [| s; i; j |] *. T.get v [| s; col + j |])
                done;
                !acc))
      in
      check_bits (Printf.sprintf "mat_vec_into col=%d" col) expected out;
      let dout = sparse_randn rng [| slices; k |] in
      let dw = randn rng [| slices; k; n |] and dv = randn rng [| slices; 2 * n |] in
      let dw' = T.copy dw and dv' = T.copy dv in
      T.mat_vec_backward w v ~col ~dout ~dw ~dv;
      for s = 0 to slices - 1 do
        for i = 0 to k - 1 do
          let g = T.get dout [| s; i |] in
          if g <> 0.0 then
            for j = 0 to n - 1 do
              T.set dw' [| s; i; j |] (T.get dw' [| s; i; j |] +. (g *. T.get v [| s; col + j |]));
              T.set dv' [| s; col + j |]
                (T.get dv' [| s; col + j |] +. (g *. T.get w [| s; i; j |]))
            done
        done
      done;
      check_bits (Printf.sprintf "mat_vec_backward dv col=%d" col) (T.to_2d dv') dv;
      check_bits
        (Printf.sprintf "mat_vec_backward dw col=%d" col)
        (T.to_2d (T.reshape dw' [| slices * k; n |]))
        (T.reshape dw [| slices * k; n |]))
    [ 0; n ]

(* --- planner coloring soundness ------------------------------------- *)

let test_graph ?(seed = 3) () =
  Gen.generate
    {
      Gen.name = "t";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = 60;
      num_edges = 200;
      compaction_target = 0.5;
      seed;
      scale = 1.0;
    }

let compile ?(training = false) ~compact ~fusion model =
  Compiler.compile
    ~options:(Compiler.options_of_flags ~training ~compact ~fusion ())
    (Models.by_name model ~in_dim:8 ~out_dim:4 ())

let all_plans compiled =
  compiled.Compiler.forward :: Option.to_list compiled.Compiler.backward

let test_coloring_sound () =
  List.iter
    (fun (model, training, compact, fusion) ->
      List.iter
        (fun (plan : Plan.t) ->
          let memory = plan.Plan.memory in
          (* exactly one placement per buffer *)
          check_int
            (plan.Plan.name ^ ": one placement per buffer")
            (List.length plan.Plan.buffers)
            (List.length memory.Plan.placements);
          let by_slot = Hashtbl.create 8 in
          List.iter
            (fun (p : Plan.placement) ->
              Hashtbl.replace by_slot p.Plan.slot
                (p :: Option.value ~default:[] (Hashtbl.find_opt by_slot p.Plan.slot)))
            memory.Plan.placements;
          let buffer name =
            List.find (fun (b : Plan.buffer) -> String.equal b.Plan.name name) plan.Plan.buffers
          in
          Hashtbl.iter
            (fun slot members ->
              if List.length members > 1 then begin
                (* only freeable temporaries may share *)
                List.iter
                  (fun (p : Plan.placement) ->
                    check_bool
                      (Printf.sprintf "%s: shared slot %d member %s is temp" plan.Plan.name
                         slot p.Plan.var)
                      true (buffer p.Plan.var).Plan.temp)
                  members;
                (* live ranges of co-located buffers are strictly disjoint *)
                let sorted =
                  List.sort
                    (fun (a : Plan.placement) (b : Plan.placement) ->
                      compare a.Plan.first b.Plan.first)
                    members
                in
                ignore
                  (List.fold_left
                     (fun prev (p : Plan.placement) ->
                       (match prev with
                       | Some (q : Plan.placement) ->
                           check_bool
                             (Printf.sprintf "%s: slot %d ranges [%d,%d] and [%d,%d] disjoint"
                                plan.Plan.name slot q.Plan.first q.Plan.last p.Plan.first
                                p.Plan.last)
                             true
                             (q.Plan.last < p.Plan.first)
                       | None -> ());
                       Some p)
                     None sorted)
              end)
            by_slot;
          (* uninit-ok never claimed for zero-initialized accumulators *)
          List.iter
            (fun (p : Plan.placement) ->
              if p.Plan.uninit_ok then
                check_bool
                  (plan.Plan.name ^ ": uninit_ok only on non-zero-init " ^ p.Plan.var)
                  false (buffer p.Plan.var).Plan.zero_init)
            memory.Plan.placements;
          (* the analysis is deterministic and matches what lowering stored *)
          let again = Bp.analyze ~buffers:plan.Plan.buffers ~steps:plan.Plan.steps in
          check_int
            (plan.Plan.name ^ ": re-analysis slot count")
            memory.Plan.num_slots again.Plan.num_slots)
        (all_plans (compile ~training ~compact ~fusion model)))
    [
      ("rgcn", true, false, false);
      ("rgat", false, true, false);
      ("rgat", true, false, true);
      ("hgt", false, false, false);
    ]

(* --- arena execution: memory and equivalence ------------------------ *)

(* Every run binds its buffers from an arena.  With [~free_temps:false]
   the arena is identity-colored: one slot per buffer and no temporary
   ever freed, i.e. every buffer allocated for the whole run.  That is the
   reference the shared coloring of [~free_temps:true] is measured and
   checked against. *)

let config = { Session.Config.default with seed = 5 }

let same_bits a b =
  T.shape a = T.shape b
  &&
  let da, oa = T.storage a and db, ob = T.storage b in
  let ok = ref true in
  for i = 0 to T.numel a - 1 do
    if Int64.bits_of_float da.(oa + i) <> Int64.bits_of_float db.(ob + i) then ok := false
  done;
  !ok

(* One forward run in the given arena mode; copies of the outputs. *)
let forward_outputs ~free_temps s (compiled : Compiler.compiled) =
  let exec = Session.exec s in
  Exec.run_plan ~free_temps exec compiled.Compiler.forward;
  List.map
    (fun name -> T.copy (Env.find exec.Exec.env name).Env.tensor)
    compiled.Compiler.forward.Plan.program.Ir.outputs

let peak_of ~free_temps model =
  let graph = test_graph () in
  let compiled = compile ~compact:false ~fusion:false model in
  let s = Session.create ~config ~graph compiled in
  ignore (forward_outputs ~free_temps s compiled);
  Memory.peak_bytes (Engine.memory (Session.engine s))

let test_peak_decreases () =
  List.iter
    (fun model ->
      let shared = peak_of ~free_temps:true model in
      let identity = peak_of ~free_temps:false model in
      check_bool
        (Printf.sprintf "%s: shared peak %.0f < identity peak %.0f" model shared identity)
        true (shared < identity))
    (* single-layer RGAT temps all overlap (nothing to share); RGCN's self
       projection and HGT's per-head pipeline have disjoint temporaries *)
    [ "rgcn"; "hgt" ]

let test_steady_state_no_alloc () =
  let graph = test_graph () in
  let s =
    Session.create ~config ~graph (compile ~training:true ~compact:false ~fusion:false "rgcn")
  in
  let labels = Array.init graph.G.num_nodes (fun i -> i mod 4) in
  (* first two steps create the arenas (forward, backward) and the loss
     seed; from then on the device allocator must not move *)
  ignore (Session.train_step s ~labels ());
  ignore (Session.train_step s ~labels ());
  let mem = Engine.memory (Session.engine s) in
  let before = Memory.alloc_count mem in
  ignore (Session.train_step s ~labels ());
  ignore (Session.train_step s ~labels ());
  check_int "steady-state training allocates no device buffers" before (Memory.alloc_count mem)

let test_planner_equivalence () =
  List.iter
    (fun (model, compact, fusion) ->
      let graph = test_graph () in
      let compiled = compile ~compact ~fusion model in
      let run ~free_temps =
        let s = Session.create ~config ~graph compiled in
        ignore (forward_outputs ~free_temps s compiled);
        (* second run exercises arena reuse, not just first-run binding *)
        forward_outputs ~free_temps s compiled
      in
      List.iter2
        (fun a b ->
          check_bool
            (Printf.sprintf "%s (compact=%b fusion=%b): shared output == identity output" model
               compact fusion)
            true (same_bits a b))
        (run ~free_temps:true) (run ~free_temps:false))
    [ ("rgcn", false, false); ("rgat", true, false); ("hgt", false, false); ("rgat", false, true) ]

(* [Session.train_step] with the backward plan on an identity arena too
   (the forward of a training step always is one). *)
let train_step_identity s (compiled : Compiler.compiled) ~labels =
  let exec = Session.exec s in
  let env = exec.Exec.env in
  let forward = compiled.Compiler.forward and backward = Option.get compiled.Compiler.backward in
  Exec.run_plan ~free_temps:false exec forward;
  let out_name = List.hd forward.Plan.program.Ir.outputs in
  let loss, dout =
    Train.nll_loss ~engine:(Session.engine s) ~out:(Env.find env out_name).Env.tensor ~labels
  in
  Env.add env ~name:(Autodiff.grad_name out_name)
    { Env.tensor = dout; space = Mat.Rows_nodes; dim = T.cols dout; alloc = None };
  Exec.run_plan ~free_temps:false exec backward;
  Train.backprop_weight_ops ~exec compiled.Compiler.weight_ops;
  Exec.free_temp_buffers exec backward;
  Exec.free_temp_buffers exec forward;
  let fused =
    List.map
      (function Lf.Mat_vec { out; _ } | Lf.Mat_mat { out; _ } -> out)
      compiled.Compiler.weight_ops
  in
  Train.sgd_step ~skip:fused ~exec ~lr:0.01 ();
  loss

let test_training_equivalence () =
  let graph = test_graph () in
  let labels = Array.init graph.G.num_nodes (fun i -> i mod 4) in
  let compiled = compile ~training:true ~compact:false ~fusion:false "rgcn" in
  let losses step =
    let s = Session.create ~config ~graph compiled in
    List.init 3 (fun _ -> step s)
  in
  List.iter2
    (fun a b -> check_bool (Printf.sprintf "loss %.17g == %.17g" a b) true (Float.equal a b))
    (losses (fun s -> Session.train_step s ~labels ()))
    (losses (fun s -> train_step_identity s compiled ~labels))

(* The arena is the only way a plan buffer gets bound: a plan whose buffer
   is already bound, or is missing from its memory plan, is refused with
   [Invalid_argument] naming the plan and the buffer, before the arena
   binds, allocates or launches anything. *)
let test_arena_refuses_unmanaged () =
  let graph = test_graph () in
  let compiled = compile ~compact:false ~fusion:false "rgcn" in
  let fwd = compiled.Compiler.forward in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let refused what plan ~bind (b : Plan.buffer) =
    let s = Session.create ~config ~graph compiled in
    let exec = Session.exec s in
    let mem = Engine.memory (Session.engine s) in
    let rows = Hector_runtime.Graph_ctx.rows_of_space exec.Exec.ctx b.Plan.space in
    let entry =
      { Env.tensor = T.zeros [| rows; b.Plan.dim |]; space = b.Plan.space; dim = b.Plan.dim; alloc = None }
    in
    if bind then Env.add exec.Exec.env ~name:b.Plan.name entry;
    let allocs = Memory.alloc_count mem and clock = Engine.elapsed_ms (Session.engine s) in
    (match Exec.run_plan exec plan with
    | () -> Alcotest.failf "%s: run_plan accepted the plan" what
    | exception Invalid_argument msg ->
        check_bool
          (Printf.sprintf "%s: %S names plan %s and buffer %s" what msg plan.Plan.name b.Plan.name)
          true
          (contains msg plan.Plan.name && contains msg b.Plan.name));
    List.iter
      (fun (o : Plan.buffer) ->
        let bound = Env.find_opt exec.Exec.env o.Plan.name in
        check_bool
          (Printf.sprintf "%s: binding of %s unchanged" what o.Plan.name)
          true
          (if bind && o == b then (match bound with Some e -> e == entry | None -> false)
           else bound = None))
      plan.Plan.buffers;
    check_int (what ^ ": no device allocation") allocs (Memory.alloc_count mem);
    check_bool (what ^ ": engine clock unchanged") true
      (Float.equal clock (Engine.elapsed_ms (Session.engine s)))
  in
  List.iter (refused "bound" fwd ~bind:true) fwd.Plan.buffers;
  let memory = fwd.Plan.memory in
  List.iter
    (fun (b : Plan.buffer) ->
      let placements =
        List.filter (fun (p : Plan.placement) -> p.Plan.var <> b.Plan.name) memory.Plan.placements
      in
      refused "unplaced" { fwd with Plan.memory = { memory with Plan.placements } } ~bind:false b)
    fwd.Plan.buffers

(* Each arena keeps its own backings: two different plans of the same
   name (the layers of a two-layer RGCN stack, both [rgcn]) on one engine
   each get their own storage and keep their outputs, and a second run of
   the first plan allocates nothing. *)
let test_arena_per_plan () =
  let graph = test_graph () in
  let engine = Engine.create () in
  let mem = Engine.memory engine in
  let compiled in_dim out_dim =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~compact:false ~fusion:false ())
      (Models.rgcn ~in_dim ~out_dim ())
  in
  let session compiled =
    Session.create ~config:{ config with engine = Some engine } ~graph compiled
  in
  let c1 = compiled 6 4 and c2 = compiled 4 3 in
  Alcotest.(check string) "same plan name" c1.Compiler.forward.Plan.name c2.Compiler.forward.Plan.name;
  let s1 = session c1 and s2 = session c2 in
  let bound s (c : Compiler.compiled) =
    (Env.find (Session.exec s).Exec.env (List.hd c.Compiler.forward.Plan.program.Ir.outputs)).Env.tensor
  in
  ignore (Session.forward s1);
  let kept = T.copy (bound s1 c1) in
  let used = Memory.used_bytes mem in
  ignore (Session.forward s2);
  check_bool "the second plan's arena is charged" true (Memory.used_bytes mem > used);
  check_bool "the first plan keeps its output" true (same_bits kept (bound s1 c1));
  let allocs = Memory.alloc_count mem in
  ignore (Session.forward s1);
  check_int "a second run of the first plan allocates nothing" allocs (Memory.alloc_count mem);
  check_bool "and computes the same output" true (same_bits kept (bound s1 c1))

let suite =
  [
    Alcotest.test_case "fused gather GEMM == gather + GEMM" `Quick test_gather_gemm;
    Alcotest.test_case "fused scatter GEMM == GEMM + scatter" `Quick test_scatter_gemm;
    Alcotest.test_case "fused transpose-gather GEMM == gather + GEMM^T" `Quick test_gather_t_gemm;
    Alcotest.test_case "fused kernels validate indices" `Quick test_bad_indices_raise;
    Alcotest.test_case "matmul_into == textbook loop, bitwise" `Quick test_matmul_oracle;
    Alcotest.test_case "gather GEMM == textbook loop, bitwise" `Quick test_gather_oracle;
    Alcotest.test_case "scatter GEMM == textbook loop, bitwise" `Quick test_scatter_oracle;
    Alcotest.test_case "gather_t GEMM == textbook loop, bitwise" `Quick test_gather_t_oracle;
    Alcotest.test_case "matmul_into rejects an aliased output" `Quick test_alias_matmul;
    Alcotest.test_case "gather GEMM rejects an aliased output" `Quick test_alias_gather;
    Alcotest.test_case "scatter GEMM rejects an aliased output" `Quick test_alias_scatter;
    Alcotest.test_case "gather_t GEMM rejects an aliased output" `Quick test_alias_gather_t;
    Alcotest.test_case "mat-vec kernels == element-wise loops" `Quick test_mat_vec_oracle;
    Alcotest.test_case "planner coloring is sound" `Quick test_coloring_sound;
    Alcotest.test_case "planner reduces peak memory" `Quick test_peak_decreases;
    Alcotest.test_case "steady-state training allocates nothing" `Quick test_steady_state_no_alloc;
    Alcotest.test_case "planner output equivalence" `Quick test_planner_equivalence;
    Alcotest.test_case "planner training equivalence" `Quick test_training_equivalence;
    Alcotest.test_case "arena refuses a bound or unplaced buffer" `Quick test_arena_refuses_unmanaged;
    Alcotest.test_case "arena backings are per plan, not per plan name" `Quick test_arena_per_plan;
    Alcotest.test_case "segment gather GEMM == textbook loop, bitwise" `Quick
      test_segment_gather_oracle;
    Alcotest.test_case "segment scatter GEMM == textbook loop, bitwise" `Quick
      test_segment_scatter_oracle;
    Alcotest.test_case "segment gather_t GEMM == textbook loop, bitwise" `Quick
      test_segment_gather_t_oracle;
    Alcotest.test_case "segment matmul == textbook loop, bitwise" `Quick test_segment_matmul_oracle;
    Alcotest.test_case "pair-summed gather_t GEMM == pair sums + textbook loop, bitwise" `Quick
      test_pair_gather_t_oracle;
    Alcotest.test_case "pair-summed scatter GEMM == pair sums + textbook loop, bitwise" `Quick
      test_pair_scatter_oracle;
    Alcotest.test_case "pair-summed GEMMs validate their pairs" `Quick test_pair_sums_validate;
    Alcotest.test_case "scatter_rows_add rejects an aliased output" `Quick test_alias_scatter_rows_add;
  ]
