(* Fused access-scheme GEMM kernels and the plan-lifetime memory planner:
   fused kernels cross-checked against their materialize-then-matmul
   equivalents on randomized shapes and index vectors at several pool
   sizes; Buffer_plan colorings checked for live-range soundness; the
   arena execution path checked for peak-memory savings, steady-state
   zero allocation and output equivalence against the eager path. *)

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
module Session = Hector_runtime.Session
module Models = Hector_models.Model_defs

let planned planner = { Session.Config.default with seed = 5; memory_planner = Some planner }

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

(* [idx] embedded in a longer array at a random offset, as a relation's
   range of a whole-graph endpoint column: the [?idx_off] window. *)
let windowed rng idx ~bound =
  let off = Rng.int rng 5 in
  (off, Array.concat [ rand_idx rng ~len:off ~bound; idx; rand_idx rng ~len:(Rng.int rng 4) ~bound ])

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
    let idx_off, whole = windowed rng idx ~bound:na in
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = T.copy reference and cw = T.copy reference in
            T.matmul_gather_into ~trans_b ~beta a ~idx b c;
            T.matmul_gather_into ~trans_b ~beta ~idx_off a ~idx:whole b cw;
            check_bool
              (Printf.sprintf "gather case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected c = 0.0 && T.max_abs_diff expected cw = 0.0)))
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
    let idx_off, whole = windowed rng idx ~bound:nc in
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = T.copy base and cw = T.copy base in
            T.matmul_scatter_add_into ~trans_b a b ~idx c;
            T.matmul_scatter_add_into ~trans_b ~idx_off a b ~idx:whole cw;
            check_bool
              (Printf.sprintf "scatter case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected c = 0.0 && T.max_abs_diff expected cw = 0.0)))
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
    let idx_off, whole = windowed rng idx ~bound:na in
    List.iter
      (fun d ->
        with_domains d (fun () ->
            let c = T.copy base and cw = T.copy base in
            T.matmul_gather_t_into ~beta:1.0 a ~idx b c;
            T.matmul_gather_t_into ~beta:1.0 ~idx_off a ~idx:whole b cw;
            check_bool
              (Printf.sprintf "gather_t case %d (%d domains)" case d)
              true
              (T.max_abs_diff expected c = 0.0 && T.max_abs_diff expected cw = 0.0)))
      [ 1; 2; 4 ]
  done

let test_bad_indices_raise () =
  let a = T.zeros [| 4; 3 |] and b = T.zeros [| 3; 2 |] in
  let c = T.zeros [| 2; 2 |] in
  let raises f = match f () with exception T.Shape_error _ -> true | _ -> false in
  check_bool "gather idx out of range" true
    (raises (fun () -> T.matmul_gather_into a ~idx:[| 0; 4 |] b c));
  check_bool "scatter idx out of range" true
    (raises (fun () -> T.matmul_scatter_add_into (T.zeros [| 2; 3 |]) b ~idx:[| 0; 2 |] c));
  check_bool "gather idx negative" true
    (raises (fun () -> T.matmul_gather_into a ~idx:[| -1; 0 |] b c));
  check_bool "scatter idx count mismatch" true
    (raises (fun () -> T.matmul_scatter_add_into (T.zeros [| 2; 3 |]) b ~idx:[| 0 |] c));
  check_bool "gather window past the end" true
    (raises (fun () -> T.matmul_gather_into ~idx_off:1 a ~idx:[| 0; 1 |] b c));
  check_bool "scatter window past the end" true
    (raises (fun () ->
         T.matmul_scatter_add_into ~idx_off:2 (T.zeros [| 2; 3 |]) b ~idx:[| 0; 1; 1 |] c));
  check_bool "gather_t negative offset" true
    (raises (fun () ->
         T.matmul_gather_t_into ~idx_off:(-1) a ~idx:[| 0; 1; 2 |] (T.zeros [| 2; 2 |])
           (T.zeros [| 3; 2 |])))

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
                (fun c -> T.matmul_scatter_add_into ~trans_b a b ~idx c))
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
                (fun c -> T.matmul_gather_t_into ~beta a ~idx b c))
            betas)
        heights)
    widths

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

let test_alias_scatter =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      check_bool "c overlaps b" true
        (raises_shape (fun () -> T.matmul_scatter_add_into w lo ~idx:[| 0; 1 |] mid));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.matmul_scatter_add_into w lo ~idx:[| 0; 1 |] hi)))

let test_alias_gather_t =
  aliasing_case (fun ~lo ~mid ~hi ~w ->
      check_bool "c overlaps a" true
        (raises_shape (fun () -> T.matmul_gather_t_into ~beta:1.0 mid ~idx:[| 0; 1 |] w lo));
      check_bool "c overlaps b" true
        (raises_shape (fun () -> T.matmul_gather_t_into w ~idx:[| 0; 1 |] hi mid));
      check_bool "disjoint views of one store" false
        (raises_shape (fun () -> T.matmul_gather_t_into lo ~idx:[| 0; 1 |] w hi)))

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
          let memory =
            match plan.Plan.memory with
            | Some m -> m
            | None -> Alcotest.failf "%s: lowering left no memory plan" plan.Plan.name
          in
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
          let again = Bp.analyze plan in
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

let peak_of ~planner model =
  let graph = test_graph () in
  let s = Session.create ~config:(planned planner) ~graph (compile ~compact:false ~fusion:false model) in
  ignore (Session.forward s);
  Memory.peak_bytes (Engine.memory (Session.engine s))

let test_peak_decreases () =
  List.iter
    (fun model ->
      let on = peak_of ~planner:true model in
      let off = peak_of ~planner:false model in
      check_bool
        (Printf.sprintf "%s: planner peak %.0f < eager peak %.0f" model on off)
        true (on < off))
    (* single-layer RGAT temps all overlap (nothing to share); RGCN's self
       projection and HGT's per-head pipeline have disjoint temporaries *)
    [ "rgcn"; "hgt" ]

let test_steady_state_no_alloc () =
  let graph = test_graph () in
  let s =
    Session.create ~config:(planned true) ~graph
      (compile ~training:true ~compact:false ~fusion:false "rgcn")
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
      let run planner =
        let s =
          Session.create ~config:(planned planner) ~graph (compile ~compact ~fusion model)
        in
        ignore (Session.forward s);
        (* second run exercises arena reuse, not just first-run binding *)
        List.map snd (Session.forward s)
      in
      List.iter2
        (fun a b ->
          check_bool
            (Printf.sprintf "%s (compact=%b fusion=%b): planner output == eager output" model
               compact fusion)
            true
            (T.max_abs_diff a b = 0.0))
        (run true) (run false))
    [ ("rgcn", false, false); ("rgat", true, false); ("hgt", false, false); ("rgat", false, true) ]

let test_training_equivalence () =
  let graph = test_graph () in
  let labels = Array.init graph.G.num_nodes (fun i -> i mod 4) in
  let losses planner =
    let s =
      Session.create ~config:(planned planner) ~graph
        (compile ~training:true ~compact:false ~fusion:false "rgcn")
    in
    List.init 3 (fun _ -> Session.train_step s ~labels ())
  in
  List.iter2
    (fun a b -> check_bool (Printf.sprintf "loss %.17g == %.17g" a b) true (Float.equal a b))
    (losses true) (losses false)

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
  ]
