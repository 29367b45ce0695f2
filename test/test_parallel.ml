(* Multicore backend tests: the domain pool itself, and every parallelized
   kernel cross-checked against the sequential backend (HECTOR_DOMAINS=1
   semantics) on randomized shapes, odd chunk boundaries and empty inputs. *)

module T = Hector_tensor.Tensor
module Dp = Hector_tensor.Domain_pool
module Rng = Hector_tensor.Rng
module G = Hector_graph.Hetgraph
module Gen = Hector_graph.Generator
module Engine = Hector_gpu.Engine
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Env = Hector_runtime.Env
module Exec = Hector_runtime.Exec
module Models = Hector_models.Model_defs
module Reference = Hector_models.Reference

let seeded seed = { Session.Config.default with seed }

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Force a pool size for the duration of [f], restoring env/default sizing
   afterwards even on failure. *)
let with_domains n f =
  Dp.set_num_domains (Some n);
  Fun.protect ~finally:(fun () -> Dp.set_num_domains None) f

(* Run [f] sequentially and at several pool sizes; every parallel result
   must be within [tol] of the sequential one ([tol = 0.] for kernels whose
   summation order is identical by construction). *)
let seq_vs_par ?(sizes = [ 2; 4 ]) ~tol name f =
  let expected = with_domains 1 f in
  List.iter
    (fun d ->
      let got = with_domains d f in
      check_bool
        (Printf.sprintf "%s: %d domains within %g of sequential" name d tol)
        true
        (T.max_abs_diff expected got <= tol))
    sizes

(* --- pool sizing ---------------------------------------------------- *)

let test_env_sizing () =
  let saved = Sys.getenv_opt "HECTOR_DOMAINS" in
  (* env knobs are parsed once by Knobs; tests refresh the cached snapshot
     after each putenv to make the change visible *)
  let set v =
    Unix.putenv "HECTOR_DOMAINS" v;
    ignore (Hector_runtime.Knobs.refresh ())
  in
  let restore () = set (Option.value saved ~default:"") in
  Fun.protect ~finally:restore (fun () ->
      set "3";
      check_int "HECTOR_DOMAINS=3" 3 (Dp.num_domains ());
      check_bool "not sequential" false (Dp.sequential ());
      set "1";
      check_int "HECTOR_DOMAINS=1" 1 (Dp.num_domains ());
      check_bool "sequential" true (Dp.sequential ());
      set "1000000";
      check_int "capped at max_domains" Dp.max_domains (Dp.num_domains ());
      (* malformed values now fail loudly instead of silently falling back *)
      Unix.putenv "HECTOR_DOMAINS" "garbage";
      (match Hector_runtime.Knobs.refresh () with
      | _ -> Alcotest.fail "garbage HECTOR_DOMAINS accepted"
      | exception Invalid_argument _ -> ());
      Unix.putenv "HECTOR_DOMAINS" "-2";
      (match Hector_runtime.Knobs.refresh () with
      | _ -> Alcotest.fail "negative HECTOR_DOMAINS accepted"
      | exception Invalid_argument _ -> ());
      set "5";
      with_domains 2 (fun () ->
          check_int "override beats the environment" 2 (Dp.num_domains ())))

(* --- parallel_for --------------------------------------------------- *)

let test_parallel_for_covers_exactly_once () =
  List.iter
    (fun (n, grain) ->
      with_domains 4 (fun () ->
          let hits = Array.make (max n 1) 0 in
          Dp.parallel_for ~grain n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Array.iteri
            (fun i h ->
              if i < n then
                check_int (Printf.sprintf "n=%d grain=%d index %d" n grain i) 1 h)
            hits))
    [ (10007, 100); (17, 3); (4096, 4096); (1, 1); (0, 64); (255, 64) ]

let test_parallel_for_propagates_exceptions () =
  with_domains 4 (fun () ->
      check_bool "exception reaches the caller" true
        (try
           Dp.parallel_for ~grain:10 1000 (fun lo _ ->
               if lo > 500 then failwith "chunk failure");
           false
         with Failure _ -> true);
      (* the pool must still be usable afterwards *)
      let count = ref 0 in
      Dp.parallel_for ~grain:1000000 10 (fun lo hi -> count := !count + hi - lo);
      check_int "pool alive after failure" 10 !count)

let test_nested_parallel_for () =
  with_domains 4 (fun () ->
      let out = Array.make 64 0 in
      Dp.parallel_for ~grain:8 64 (fun lo hi ->
          for i = lo to hi - 1 do
            (* nested call: must degrade to the plain loop, not deadlock *)
            let acc = ref 0 in
            Dp.parallel_for ~grain:1 (i + 1) (fun l h -> acc := !acc + h - l);
            out.(i) <- !acc
          done);
      Array.iteri (fun i v -> check_int (Printf.sprintf "inner sum %d" i) (i + 1) v) out)

let test_parallel_for_reduce () =
  let n = 12345 in
  with_domains 4 (fun () ->
      let total =
        Dp.parallel_for_reduce ~grain:97 n
          ~init:(fun () -> 0)
          ~body:(fun acc lo hi ->
            let acc = ref acc in
            for i = lo to hi - 1 do
              acc := !acc + i
            done;
            !acc)
          ~merge:( + )
      in
      check_int "sum 0..n-1" (n * (n - 1) / 2) total);
  (* chunk boundaries depend only on (n, grain): any pool size > 1 must give
     bitwise-identical float reductions *)
  let float_sum () =
    Dp.parallel_for_reduce ~grain:64 n
      ~init:(fun () -> 0.0)
      ~body:(fun acc lo hi ->
        let acc = ref acc in
        for i = lo to hi - 1 do
          acc := !acc +. (1.0 /. float_of_int (i + 1))
        done;
        !acc)
      ~merge:( +. )
  in
  let at2 = with_domains 2 float_sum and at4 = with_domains 4 float_sum in
  check_bool "2 and 4 domains bitwise equal" true (Float.equal at2 at4);
  let empty =
    with_domains 4 (fun () ->
        Dp.parallel_for_reduce 0
          ~init:(fun () -> 42)
          ~body:(fun acc _ _ -> acc + 1)
          ~merge:( + ))
  in
  check_int "empty range yields init" 42 empty

(* --- tensor kernels ------------------------------------------------- *)

let test_map_kernels () =
  let rng = Rng.create 7 in
  (* large enough to exceed the element grain, odd sizes, plus empties *)
  List.iter
    (fun shape ->
      let a = T.randn rng shape and b = T.randn rng shape in
      let label r = Printf.sprintf "%s %dx%d" r shape.(0) shape.(1) in
      seq_vs_par ~tol:0.0 (label "map") (fun () -> T.map (fun x -> (2.0 *. x) +. 1.0) a);
      seq_vs_par ~tol:0.0 (label "map2") (fun () -> T.map2 ( *. ) a b);
      seq_vs_par ~tol:0.0 (label "relu") (fun () -> T.relu a);
      seq_vs_par ~tol:0.0 (label "add_inplace") (fun () ->
          let c = T.copy a in
          T.add_inplace c b;
          c);
      seq_vs_par ~tol:0.0 (label "axpy") (fun () ->
          let c = T.copy a in
          T.axpy 0.5 b c;
          c))
    [ [| 123; 177 |]; [| 4096; 5 |]; [| 3; 3 |]; [| 0; 7 |] ]

let test_matmul () =
  let rng = Rng.create 11 in
  (* shapes chosen so the row grain (32768 / row_flops) splits the row range
     into several chunks, plus degenerate cases *)
  List.iter
    (fun (m, k, n) ->
      let a = T.randn rng [| m; k |] and b = T.randn rng [| k; n |] in
      seq_vs_par ~tol:0.0 (Printf.sprintf "matmul %dx%dx%d" m k n) (fun () -> T.matmul a b);
      seq_vs_par ~tol:0.0
        (Printf.sprintf "matmul_into beta %dx%dx%d" m k n)
        (fun () ->
          let c = T.full [| m; n |] 0.25 in
          T.matmul_into ~beta:1.0 a b c;
          c))
    [ (400, 32, 16); (257, 7, 9); (1000, 1, 1); (1, 50, 50); (0, 5, 5) ];
  (* transposed operands follow the same row partitioning *)
  let a = T.randn rng [| 31; 213 |] and b = T.randn rng [| 197; 31 |] in
  seq_vs_par ~tol:0.0 "matmul trans_a/trans_b" (fun () -> T.matmul ~trans_a:true ~trans_b:true a b)

let test_reductions () =
  let rng = Rng.create 13 in
  let a = T.randn rng [| 301; 37 |] and b = T.randn rng [| 301; 37 |] in
  (* flat float reductions reassociate across chunks: compare within 1e-6 *)
  let close name f =
    let expected = with_domains 1 f in
    List.iter
      (fun d ->
        let got = with_domains d f in
        check_bool (Printf.sprintf "%s at %d domains" name d) true
          (Float.abs (expected -. got) <= 1e-6 *. Float.max 1.0 (Float.abs expected)))
      [ 2; 4 ]
  in
  close "sum" (fun () -> T.sum a);
  close "dot" (fun () -> T.dot a b);
  close "mean" (fun () -> T.mean a);
  seq_vs_par ~tol:1e-6 "sum_rows" (fun () -> T.sum_rows a);
  seq_vs_par ~tol:0.0 "sum_cols" (fun () -> T.sum_cols a);
  check_bool "sum of empty" true (with_domains 4 (fun () -> T.sum (T.zeros [| 0; 4 |])) = 0.0)

let test_gather_scatter () =
  let rng = Rng.create 17 in
  let src_rows = 320 and dst_rows = 57 and cols = 33 in
  let m = T.randn rng [| src_rows; cols |] in
  let idx = Array.init 900 (fun _ -> Rng.int rng src_rows) in
  seq_vs_par ~tol:0.0 "gather_rows" (fun () -> T.gather_rows m idx);
  (* accumulating scatter with many duplicate destinations: per-destination
     accumulation order is the source order in both backends *)
  let src = T.randn rng [| 900; cols |] in
  let dup_idx = Array.init 900 (fun _ -> Rng.int rng dst_rows) in
  seq_vs_par ~tol:0.0 "scatter_rows_add duplicates" (fun () ->
      let into = T.zeros [| dst_rows; cols |] in
      T.scatter_rows_add ~into dup_idx src;
      into);
  seq_vs_par ~tol:0.0 "scatter_rows_add empty" (fun () ->
      let into = T.ones [| dst_rows; cols |] in
      T.scatter_rows_add ~into [||] (T.zeros [| 0; cols |]);
      into);
  (* out-of-range indices must still raise under any pool size *)
  with_domains 4 (fun () ->
      check_bool "bad scatter index raises" true
        (try
           T.scatter_rows_add ~into:(T.zeros [| 4; cols |])
             (Array.make 900 99)
             src;
           false
         with Invalid_argument _ | T.Shape_error _ -> true))

let test_random_shapes () =
  (* randomized cross-check sweep: shapes straddle the grain thresholds *)
  let rng = Rng.create 23 in
  for trial = 0 to 9 do
    let m = 1 + Rng.int rng 500
    and k = 1 + Rng.int rng 40
    and n = 1 + Rng.int rng 40 in
    let a = T.randn rng [| m; k |] and b = T.randn rng [| k; n |] in
    seq_vs_par ~tol:0.0 (Printf.sprintf "random matmul #%d (%dx%dx%d)" trial m k n)
      (fun () -> T.matmul a b);
    let c = T.randn rng [| m; k |] in
    seq_vs_par ~tol:0.0 (Printf.sprintf "random map2 #%d" trial) (fun () ->
        T.map2 (fun x y -> x -. (0.3 *. y)) a c)
  done

(* --- traversal + end-to-end models ---------------------------------- *)

let test_graph ?(seed = 3) ?(nodes = 80) ?(edges = 300) () =
  Gen.generate
    {
      Gen.name = "par";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = nodes;
      num_edges = edges;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let forward_out ~graph ~compact ~fusion name =
  let options = Compiler.options_of_flags ~compact ~fusion () in
  let compiled = Compiler.compile ~options (Models.by_name name ~in_dim:8 ~out_dim:6 ()) in
  let session = Session.create ~config:(seeded 5) ~graph compiled in
  List.assoc "out" (Session.forward session)

let test_exec_traversal_matches_sequential () =
  let graph = test_graph () in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (compact, fusion) ->
          seq_vs_par ~tol:1e-6
            (Printf.sprintf "%s forward (compact=%b fusion=%b)" name compact fusion)
            (fun () -> forward_out ~graph ~compact ~fusion name))
        [ (false, false); (true, true) ])
    Models.all

let test_train_step_matches_sequential () =
  let graph = test_graph ~seed:29 () in
  let labels = Array.init graph.G.num_nodes (fun i -> i mod 4) in
  List.iter
    (fun (name, _) ->
      let losses_and_grads () =
        let compiled =
          Compiler.compile
            ~options:(Compiler.options_of_flags ~training:true ~compact:false ~fusion:false ())
            (Models.by_name name ~in_dim:8 ~out_dim:4 ())
        in
        let session = Session.create ~config:(seeded 5) ~graph compiled in
        let loss = Session.train_step session ~lr:0.1 ~labels () in
        (loss, Session.weights session)
      in
      let loss1, w1 = with_domains 1 losses_and_grads in
      List.iter
        (fun d ->
          let lossd, wd = with_domains d losses_and_grads in
          check_bool (Printf.sprintf "%s loss at %d domains" name d) true
            (Float.abs (loss1 -. lossd) <= 1e-6);
          List.iter
            (fun (wname, w) ->
              let w' = List.assoc wname wd in
              check_bool
                (Printf.sprintf "%s weight %s after step at %d domains" name wname d)
                true
                (T.max_abs_diff w w' <= 1e-6))
            w1)
        [ 2; 4 ])
    Models.all

let test_reference_models_match_sequential () =
  let graph = test_graph ~seed:41 () in
  List.iter
    (fun (name, build) ->
      let compiled = Compiler.compile ~options:Compiler.default_options (build ()) in
      let session = Session.create ~config:(seeded 5) ~graph compiled in
      let env = (Session.exec session).Exec.env in
      let inputs =
        List.filter_map
          (fun n -> Option.map (fun (e : Env.entry) -> (n, e.Env.tensor)) (Env.find_opt env n))
          [ "h"; "norm" ]
      in
      let weights = Session.weights session in
      seq_vs_par ~tol:1e-6 (name ^ " reference") (fun () ->
          Reference.by_name name ~graph ~inputs ~weights))
    Models.all

(* A graph context builds its CSR, compaction maps and representative
   masks on first request, unsynchronized: every parallel sweep must find
   them resolved on the calling domain.  Fresh contexts driven straight
   into compact and C+F plans match the one-domain run bit for bit. *)
let test_fresh_context_bitwise () =
  let graph = test_graph ~seed:17 ~nodes:300 ~edges:1500 () in
  let bits t = Array.map Int64.bits_of_float (T.to_flat_array t) in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (compact, fusion) ->
          let run () = bits (forward_out ~graph ~compact ~fusion name) in
          let expected = with_domains 1 run in
          List.iter
            (fun d ->
              check_bool
                (Printf.sprintf "%s compact=%b fusion=%b: %d domains bitwise" name compact fusion d)
                true
                (with_domains d run = expected))
            [ 2; 4 ])
        [ (true, false); (true, true) ])
    Models.all;
  (* training reads the pair-gradient masks inside parallel sweeps *)
  let labels = Array.init graph.G.num_nodes (fun i -> i mod 6) in
  let step () =
    let compiled =
      Compiler.compile
        ~options:(Compiler.options_of_flags ~training:true ~compact:true ~fusion:true ())
        (Models.by_name "rgat" ~in_dim:8 ~out_dim:6 ())
    in
    Session.train_step (Session.create ~config:(seeded 5) ~graph compiled) ~lr:0.1 ~labels ()
  in
  let l1 = with_domains 1 step in
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "rgat C+F train step at %d domains" d) true
        (Float.abs (with_domains d step -. l1) <= 1e-6))
    [ 2; 4 ]

(* --- JSON escaping (chrome traces and BENCH_micro.json) -------------- *)

let test_json_escape () =
  let check_str = Alcotest.(check string) in
  check_str "plain" "abc" (Engine.json_escape "abc");
  check_str "quote" "a\\\"b" (Engine.json_escape "a\"b");
  check_str "backslash" "a\\\\b" (Engine.json_escape "a\\b");
  check_str "newline+tab" "a\\nb\\tc" (Engine.json_escape "a\nb\tc");
  check_str "control" "x\\u0001y" (Engine.json_escape "x\x01y")

let suite =
  [
    Alcotest.test_case "HECTOR_DOMAINS sizing" `Quick test_env_sizing;
    Alcotest.test_case "parallel_for covers each index once" `Quick
      test_parallel_for_covers_exactly_once;
    Alcotest.test_case "parallel_for propagates exceptions" `Quick
      test_parallel_for_propagates_exceptions;
    Alcotest.test_case "nested parallel_for degrades safely" `Quick test_nested_parallel_for;
    Alcotest.test_case "parallel_for_reduce deterministic" `Quick test_parallel_for_reduce;
    Alcotest.test_case "map kernels match sequential" `Quick test_map_kernels;
    Alcotest.test_case "matmul matches sequential" `Quick test_matmul;
    Alcotest.test_case "reductions match sequential" `Quick test_reductions;
    Alcotest.test_case "gather/scatter match sequential" `Quick test_gather_scatter;
    Alcotest.test_case "randomized shape sweep" `Quick test_random_shapes;
    Alcotest.test_case "compiled forward matches sequential" `Quick
      test_exec_traversal_matches_sequential;
    Alcotest.test_case "train step matches sequential" `Quick test_train_step_matches_sequential;
    Alcotest.test_case "reference models match sequential" `Quick
      test_reference_models_match_sequential;
    Alcotest.test_case "fresh lazy context bitwise at 1/2/4 domains" `Quick
      test_fresh_context_bitwise;
    Alcotest.test_case "json_escape" `Quick test_json_escape;
  ]
