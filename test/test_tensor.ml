(* Unit and property tests for the dense tensor substrate. *)

module T = Hector_tensor.Tensor
module Rng = Hector_tensor.Rng

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_shape () =
  let t = T.create [| 2; 3 |] in
  check_int "rows" 2 (T.rows t);
  check_int "cols" 3 (T.cols t);
  check_int "numel" 6 (T.numel t);
  check_int "ndim" 2 (T.ndim t);
  check_float "zero" 0.0 (T.get t [| 1; 2 |])

let test_full_ones () =
  let t = T.full [| 4 |] 2.5 in
  check_float "full" 2.5 (T.get1 t 3);
  let o = T.ones [| 2; 2 |] in
  check_float "ones sum" 4.0 (T.sum o)

let test_init_order () =
  (* init must fill in row-major order *)
  let t = T.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 10) + idx.(1))) in
  check_float "0,0" 0.0 (T.get2 t 0 0);
  check_float "0,2" 2.0 (T.get2 t 0 2);
  check_float "1,0" 10.0 (T.get2 t 1 0);
  check_float "1,2" 12.0 (T.get2 t 1 2)

let test_of_array_mismatch () =
  Alcotest.check_raises "mismatch" (T.Shape_error "of_array: 3 elements vs shape product 4")
    (fun () -> ignore (T.of_array [| 2; 2 |] [| 1.; 2.; 3. |]))

let test_get_set_roundtrip () =
  let t = T.create [| 3; 4 |] in
  T.set t [| 2; 1 |] 7.0;
  check_float "get" 7.0 (T.get t [| 2; 1 |]);
  check_float "get2" 7.0 (T.get2 t 2 1);
  T.set2 t 0 3 (-1.0);
  check_float "set2/get" (-1.0) (T.get t [| 0; 3 |])

let test_bounds_checked () =
  let t = T.create [| 2; 2 |] in
  check_bool "raises"
    true
    (try
       ignore (T.get t [| 2; 0 |]);
       false
     with T.Shape_error _ -> true)

let test_reshape () =
  let t = T.init [| 2; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1))) in
  let r = T.reshape t [| 3; 2 |] in
  check_float "preserved order" 3.0 (T.get2 r 1 1);
  check_bool "bad reshape"
    true
    (try
       ignore (T.reshape t [| 4 |]);
       false
     with T.Shape_error _ -> true)

let test_slice0_view () =
  (* slice0 is a zero-copy view: parent mutation shows through *)
  let w = T.init [| 2; 2; 2 |] (fun idx -> float_of_int ((idx.(0) * 4) + (idx.(1) * 2) + idx.(2))) in
  let s1 = T.slice0 w 1 in
  check_float "slice read" 6.0 (T.get2 s1 1 0);
  T.set2 s1 1 0 99.0;
  check_float "parent sees write" 99.0 (T.get w [| 1; 1; 0 |])

let test_row_view () =
  let m = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let r = T.row m 1 in
  check_float "row" 4.0 (T.get1 r 1);
  T.set1 r 0 (-3.0);
  check_float "parent" (-3.0) (T.get2 m 1 0)

let test_sub_rows () =
  let m = T.init [| 5; 2 |] (fun idx -> float_of_int idx.(0)) in
  let s = T.sub_rows m 2 2 in
  check_int "rows" 2 (T.rows s);
  check_float "first" 2.0 (T.get2 s 0 0);
  check_float "second" 3.0 (T.get2 s 1 1)

let test_reshape_of_view_copies () =
  let w = T.init [| 2; 4 |] (fun idx -> float_of_int ((idx.(0) * 4) + idx.(1))) in
  let v = T.sub_rows w 1 1 in
  let r = T.reshape v [| 2; 2 |] in
  T.set2 r 0 0 42.0;
  check_float "parent unchanged" 4.0 (T.get2 w 1 0)

let test_matmul_known () =
  let a = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_2d [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = T.matmul a b in
  check_float "c00" 19.0 (T.get2 c 0 0);
  check_float "c01" 22.0 (T.get2 c 0 1);
  check_float "c10" 43.0 (T.get2 c 1 0);
  check_float "c11" 50.0 (T.get2 c 1 1)

let naive_matmul a b =
  let m = T.rows a and k = T.cols a and n = T.cols b in
  T.init [| m; n |] (fun idx ->
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (T.get2 a idx.(0) p *. T.get2 b p idx.(1))
      done;
      !acc)

let test_matmul_transposes () =
  let rng = Rng.create 11 in
  let a = T.randn rng [| 4; 3 |] and b = T.randn rng [| 3; 5 |] in
  let at = T.init [| 3; 4 |] (fun idx -> T.get2 a idx.(1) idx.(0)) in
  let bt = T.init [| 5; 3 |] (fun idx -> T.get2 b idx.(1) idx.(0)) in
  let expected = naive_matmul a b in
  check_bool "trans_a" true (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_a:true at b));
  check_bool "trans_b" true (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_b:true a bt));
  check_bool "both" true
    (T.approx_equal ~tol:1e-9 expected (T.matmul ~trans_a:true ~trans_b:true at bt))

let test_matmul_into_beta () =
  let a = T.of_2d [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let b = T.of_2d [| [| 2.; 0. |]; [| 0.; 2. |] |] in
  let c = T.full [| 2; 2 |] 1.0 in
  T.matmul_into ~beta:1.0 a b c;
  check_float "accumulated" 3.0 (T.get2 c 0 0);
  check_float "off-diagonal" 1.0 (T.get2 c 0 1)

let test_matmul_shape_error () =
  let a = T.create [| 2; 3 |] and b = T.create [| 4; 2 |] in
  check_bool "raises" true
    (try
       ignore (T.matmul a b);
       false
     with T.Shape_error _ -> true)

let test_dot_outer () =
  let x = T.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let y = T.of_array [| 3 |] [| 4.; 5.; 6. |] in
  check_float "dot" 32.0 (T.dot x y);
  let o = T.outer x y in
  check_float "outer 2,1" 15.0 (T.get2 o 2 1)

let test_elementwise () =
  let a = T.of_array [| 3 |] [| 1.; -2.; 3. |] in
  let b = T.of_array [| 3 |] [| 2.; 2.; 2. |] in
  check_float "add" 0.0 (T.get1 (T.add a b) 1);
  check_float "sub" (-4.0) (T.get1 (T.sub a b) 1);
  check_float "mul" 6.0 (T.get1 (T.mul a b) 2);
  check_float "div" 1.5 (T.get1 (T.div a b) 2);
  check_float "scale" (-6.0) (T.get1 (T.scale 3.0 a) 1)

let test_inplace () =
  let a = T.of_array [| 2 |] [| 1.; 2. |] in
  let b = T.of_array [| 2 |] [| 10.; 20. |] in
  T.add_inplace a b;
  check_float "add_inplace" 22.0 (T.get1 a 1);
  T.axpy 0.5 b a;
  check_float "axpy" 32.0 (T.get1 a 1);
  T.fill a 0.0;
  check_float "fill" 0.0 (T.get1 a 0)

let test_activations () =
  let a = T.of_array [| 2 |] [| -1.0; 2.0 |] in
  check_float "relu-" 0.0 (T.get1 (T.relu a) 0);
  check_float "relu+" 2.0 (T.get1 (T.relu a) 1);
  check_float "leaky" (-0.01) (T.get1 (T.leaky_relu a) 0);
  check_float "leaky slope" (-0.2) (T.get1 (T.leaky_relu ~slope:0.2 a) 0);
  check_float "exp" (Stdlib.exp 2.0) (T.get1 (T.exp a) 1)

let test_reductions () =
  let m = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_float "sum" 10.0 (T.sum m);
  check_float "mean" 2.5 (T.mean m);
  check_float "max" 4.0 (T.max_value m);
  let sr = T.sum_rows m in
  check_float "sum_rows col0" 4.0 (T.get1 sr 0);
  check_float "sum_rows col1" 6.0 (T.get1 sr 1);
  let sc = T.sum_cols m in
  check_float "sum_cols row0" 3.0 (T.get1 sc 0);
  check_float "sum_cols row1" 7.0 (T.get1 sc 1)

let test_argmax_rows () =
  let m = T.of_2d [| [| 1.; 5.; 2. |]; [| 9.; 0.; 3. |] |] in
  let idx = T.argmax_rows m in
  check_int "row0" 1 idx.(0);
  check_int "row1" 0 idx.(1)

let test_gather_scatter () =
  let m = T.of_2d [| [| 0.; 0. |]; [| 1.; 1. |]; [| 2.; 2. |] |] in
  let g = T.gather_rows m [| 2; 0; 2 |] in
  check_float "gathered" 2.0 (T.get2 g 0 0);
  check_float "gathered dup" 2.0 (T.get2 g 2 1);
  let out = T.zeros [| 3; 2 |] in
  T.scatter_rows_set ~into:out [| 1; 0; 2 |] g;
  check_float "scatter set" 2.0 (T.get2 out 1 0);
  let acc = T.zeros [| 3; 2 |] in
  T.scatter_rows_add ~into:acc [| 0; 0; 1 |] g;
  (* rows 0 and 1 of g both land on row 0 *)
  check_float "scatter add" 2.0 (T.get2 acc 0 0);
  check_float "scatter add row1" 2.0 (T.get2 acc 1 1)

let test_concat_split () =
  let a = T.of_2d [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = T.of_2d [| [| 5. |]; [| 6. |] |] in
  let c = T.concat_cols a b in
  check_int "cols" 3 (T.cols c);
  check_float "left" 2.0 (T.get2 c 0 1);
  check_float "right" 6.0 (T.get2 c 1 2);
  let a', b' = T.split_cols c 2 in
  check_bool "left roundtrip" true (T.approx_equal ~tol:0.0 a a');
  check_bool "right roundtrip" true (T.approx_equal ~tol:0.0 b b')

let test_approx_equal () =
  let a = T.of_array [| 2 |] [| 1.0; 1000.0 |] in
  let b = T.of_array [| 2 |] [| 1.00005; 1000.05 |] in
  check_bool "within relative tol" true (T.approx_equal ~tol:1e-4 a b);
  let c = T.of_array [| 2 |] [| 1.1; 1000.0 |] in
  check_bool "outside tol" false (T.approx_equal ~tol:1e-4 a c);
  let d = T.of_array [| 1 |] [| 1.0 |] in
  check_bool "shape mismatch" false (T.approx_equal a d)

let test_glorot_bounds () =
  let rng = Rng.create 3 in
  let w = T.glorot rng [| 10; 20; 30 |] in
  let limit = sqrt (6.0 /. 50.0) in
  check_bool "bounded" true (T.max_value (T.map Float.abs w) <= limit)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done;
  let c = Rng.split a and d = Rng.split b in
  check_float "split same" (Rng.uniform c) (Rng.uniform d)

let test_rng_ranges () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "int range" true (x >= 0 && x < 10);
    let f = Rng.uniform rng in
    check_bool "uniform range" true (f >= 0.0 && f < 1.0);
    let z = Rng.zipf rng ~n:7 ~s:1.0 in
    check_bool "zipf range" true (z >= 0 && z < 7)
  done

let test_rng_zipf_skew () =
  (* Zipf must prefer small indices. *)
  let rng = Rng.create 9 in
  let counts = Array.make 5 0 in
  for _ = 1 to 5000 do
    let z = Rng.zipf rng ~n:5 ~s:1.2 in
    counts.(z) <- counts.(z) + 1
  done;
  check_bool "head heavier than tail" true (counts.(0) > counts.(4))

let test_rng_zipf_table_rejects () =
  let rejects expected f =
    match f () with
    | _ -> Alcotest.failf "accepted, expected %S" expected
    | exception Invalid_argument msg -> Alcotest.(check string) expected expected msg
  in
  rejects "Rng.zipf_table: n must be positive (got 0)" (fun () -> Rng.zipf_table ~n:0 ~s:1.0);
  rejects "Rng.zipf_table: n must be positive (got -4)" (fun () -> Rng.zipf_table ~n:(-4) ~s:1.0);
  rejects "Rng.zipf_table: s must be finite (got nan)" (fun () -> Rng.zipf_table ~n:5 ~s:Float.nan);
  rejects "Rng.zipf_table: s must be finite (got inf)" (fun () ->
      Rng.zipf_table ~n:5 ~s:Float.infinity);
  rejects "Rng.zipf_table: s must be finite (got -inf)" (fun () ->
      Rng.zipf_table ~n:5 ~s:Float.neg_infinity);
  rejects "Rng.zipf_table: s must be finite (got nan)" (fun () ->
      Rng.zipf (Rng.create 1) ~n:5 ~s:Float.nan)

(* A generator whose next [Rng.uniform] is exactly [m / 2^53], for
   [m] in [\[1, 2^53)]: xorshift64*'s output multiplier and its three
   shift-xors, inverted. *)
let rng_with_next_uniform m =
  let open Int64 in
  let c = 0x2545f4914f6cdd1dL in
  (* Newton's iteration doubles the correct low bits of an odd inverse *)
  let inv = ref c in
  for _ = 1 to 6 do
    inv := mul !inv (sub 2L (mul c !inv))
  done;
  let undo shift y =
    let r = ref y and p = ref (shift y) in
    while not (equal !p 0L) do
      r := logxor !r !p;
      p := shift !p
    done;
    !r
  in
  let x = mul (shift_left (of_int m) 11) !inv in
  let x = undo (fun v -> shift_left v 17) x in
  let x = undo (fun v -> shift_right_logical v 7) x in
  Rng.of_state (undo (fun v -> shift_left v 13) x)

let zipf_exponents = [ 0.0; 0.7; 0.9; 1.0; 8.0; 400.0 ]

(* One table draw and one linear-scan draw from the same state agree on
   the index and on the state they leave. *)
let same_zipf_draw tbl ~n ~s r1 r2 =
  let a = Rng.zipf_draw r1 tbl and b = Gen_oracle.zipf r2 ~n ~s in
  a = b && Int64.equal (Rng.state r1) (Rng.state r2)

let test_rng_zipf_boundaries () =
  let two53 = 9007199254740992.0 in
  for m = 1 to 20 do
    let m = m * 449_000_000_000_017 in
    check_bool "crafted uniform" true
      (Rng.uniform (rng_with_next_uniform m) = float_of_int m /. two53)
  done;
  (* targets at and around every prefix sum: exact hits for s = 0 and a
     power-of-two n, where [>=] and [>] part ways *)
  List.iter
    (fun s ->
      List.iter
        (fun n ->
          let tbl = Rng.zipf_table ~n ~s in
          let prefix = Array.make n 0.0 and acc = ref 0.0 in
          for i = 1 to n do
            acc := !acc +. (1.0 /. (float_of_int i ** s));
            prefix.(i - 1) <- !acc
          done;
          Array.iter
            (fun p ->
              let m0 = int_of_float (p /. !acc *. two53) in
              for m = m0 - 1 to m0 + 1 do
                let m = max 1 (min m ((1 lsl 53) - 1)) in
                if not (same_zipf_draw tbl ~n ~s (rng_with_next_uniform m) (rng_with_next_uniform m))
                then Alcotest.failf "n %d s %g m %d: table and scan disagree" n s m
              done)
            prefix)
        [ 1; 2; 3; 4; 7; 8; 64; 100; 512; 1000 ])
    zipf_exponents

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  check_bool "mean near 0" true (Float.abs mean < 0.05);
  check_bool "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "is permutation" true (sorted = Array.init 50 (fun i -> i))

(* --- property tests --- *)

let prop_shuffle_pair_matches_shuffle =
  QCheck.Test.make ~name:"shuffle_pair == shuffle of the pairs, same draws" ~count:100
    QCheck.(make Gen.(triple (int_range 0 1000) (int_range 0 40) (int_range 0 5)))
    (fun (seed, n, spare) ->
      let a = Array.init (n + spare) (fun i -> i * 7) and b = Array.init (n + spare) (fun i -> -i) in
      let pairs = Array.init n (fun i -> (a.(i), b.(i))) in
      let r1 = Rng.create seed and r2 = Rng.create seed in
      Rng.shuffle r1 pairs;
      Rng.shuffle_pair r2 a b n;
      Array.for_all2 (fun (x, y) i -> a.(i) = x && b.(i) = y) pairs (Array.init n Fun.id)
      && Array.for_all (fun i -> a.(i) = i * 7) (Array.init spare (fun k -> n + k))
      && Rng.int r1 1_000_000 = Rng.int r2 1_000_000)

let prop_zipf_table_matches_scan =
  QCheck.Test.make ~name:"zipf table draw == linear scan, same state after" ~count:200
    QCheck.(
      make
        ~print:(fun (seed, n, s, k) -> Printf.sprintf "seed %d n %d s %g draws %d" seed n s k)
        Gen.(quad (int_range 0 1_000_000) (int_range 1 1000) (oneofl zipf_exponents)
               (int_range 1 20)))
    (fun (seed, n, s, draws) ->
      let tbl = Rng.zipf_table ~n ~s in
      let r1 = Rng.create seed and r2 = Rng.create seed in
      List.for_all (fun _ -> same_zipf_draw tbl ~n ~s r1 r2) (List.init draws Fun.id)
      && Rng.zipf r1 ~n ~s = Gen_oracle.zipf r2 ~n ~s)

let tensor_gen =
  QCheck.Gen.(
    let* r = int_range 1 6 in
    let* c = int_range 1 6 in
    let* data = array_size (return (r * c)) (float_range (-10.0) 10.0) in
    return (T.of_array [| r; c |] data))

let arb_matrix = QCheck.make tensor_gen ~print:(Format.asprintf "%a" T.pp)

let prop_distributive =
  QCheck.Test.make ~name:"matmul distributes over add" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.shape a = T.shape b);
      let k = T.cols a in
      let c = T.init [| k; 3 |] (fun idx -> float_of_int ((idx.(0) * 3) + idx.(1)) /. 7.0) in
      T.approx_equal ~tol:1e-6 (T.matmul (T.add a b) c) (T.add (T.matmul a c) (T.matmul b c)))

let prop_transpose =
  QCheck.Test.make ~name:"(A*B)^T = B^T * A^T (via flags)" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.cols a = T.rows b);
      let ab = T.matmul a b in
      let abt = T.init [| T.cols ab; T.rows ab |] (fun idx -> T.get2 ab idx.(1) idx.(0)) in
      (* B^T * A^T computed without materializing transposes *)
      let alt = T.matmul ~trans_a:true ~trans_b:true b a in
      T.approx_equal ~tol:1e-6 abt alt)

let prop_gather_scatter_inverse =
  QCheck.Test.make ~name:"scatter_set inverts gather on a permutation" ~count:100 arb_matrix
    (fun m ->
      let r = T.rows m in
      let rng = Rng.create (T.numel m) in
      let perm = Array.init r (fun i -> i) in
      Rng.shuffle rng perm;
      let g = T.gather_rows m perm in
      let out = T.zeros [| r; T.cols m |] in
      T.scatter_rows_set ~into:out perm g;
      T.approx_equal ~tol:0.0 m out)

let prop_sum_linear =
  QCheck.Test.make ~name:"sum is linear under scale" ~count:100 arb_matrix (fun m ->
      Float.abs (T.sum (T.scale 3.0 m) -. (3.0 *. T.sum m)) < 1e-6 *. (1.0 +. Float.abs (T.sum m)))

let prop_concat_split =
  QCheck.Test.make ~name:"split_cols inverts concat_cols" ~count:100
    (QCheck.pair arb_matrix arb_matrix)
    (fun (a, b) ->
      QCheck.assume (T.rows a = T.rows b);
      let a', b' = T.split_cols (T.concat_cols a b) (T.cols a) in
      T.approx_equal ~tol:0.0 a a' && T.approx_equal ~tol:0.0 b b')

let suite =
  [
    Alcotest.test_case "create/shape" `Quick test_create_shape;
    Alcotest.test_case "full/ones" `Quick test_full_ones;
    Alcotest.test_case "init row-major order" `Quick test_init_order;
    Alcotest.test_case "of_array mismatch" `Quick test_of_array_mismatch;
    Alcotest.test_case "get/set roundtrip" `Quick test_get_set_roundtrip;
    Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
    Alcotest.test_case "reshape" `Quick test_reshape;
    Alcotest.test_case "slice0 is a view" `Quick test_slice0_view;
    Alcotest.test_case "row is a view" `Quick test_row_view;
    Alcotest.test_case "sub_rows" `Quick test_sub_rows;
    Alcotest.test_case "reshape of view copies" `Quick test_reshape_of_view_copies;
    Alcotest.test_case "matmul known values" `Quick test_matmul_known;
    Alcotest.test_case "matmul transposes" `Quick test_matmul_transposes;
    Alcotest.test_case "matmul_into beta" `Quick test_matmul_into_beta;
    Alcotest.test_case "matmul shape error" `Quick test_matmul_shape_error;
    Alcotest.test_case "dot/outer" `Quick test_dot_outer;
    Alcotest.test_case "elementwise ops" `Quick test_elementwise;
    Alcotest.test_case "in-place ops" `Quick test_inplace;
    Alcotest.test_case "activations" `Quick test_activations;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "argmax_rows" `Quick test_argmax_rows;
    Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
    Alcotest.test_case "concat/split" `Quick test_concat_split;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    Alcotest.test_case "glorot bounds" `Quick test_glorot_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng zipf skew" `Quick test_rng_zipf_skew;
    Alcotest.test_case "rng zipf_table rejects bad n and s" `Quick test_rng_zipf_table_rejects;
    Alcotest.test_case "rng zipf table == scan at prefix boundaries" `Quick test_rng_zipf_boundaries;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_shuffle_pair_matches_shuffle;
    QCheck_alcotest.to_alcotest prop_zipf_table_matches_scan;
    QCheck_alcotest.to_alcotest prop_distributive;
    QCheck_alcotest.to_alcotest prop_transpose;
    QCheck_alcotest.to_alcotest prop_gather_scatter_inverse;
    QCheck_alcotest.to_alcotest prop_sum_linear;
    QCheck_alcotest.to_alcotest prop_concat_split;
  ]
