(* Observability subsystem tests: span/counter collection, the whole-clock
   per-op attribution invariant, zero-allocation disabled handles, the
   Session.Config / legacy-label equivalence, and Knobs parsing. *)

module T = Hector_tensor.Tensor
module Domain_pool = Hector_tensor.Domain_pool
module Gen = Hector_graph.Generator
module Engine = Hector_gpu.Engine
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel
module Obs = Hector_obs
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Knobs = Hector_runtime.Knobs
module Models = Hector_models.Model_defs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let test_graph ?(seed = 3) ?(nodes = 60) ?(edges = 200) () =
  Gen.generate
    {
      Gen.name = "t";
      num_ntypes = 3;
      num_etypes = 6;
      num_nodes = nodes;
      num_edges = edges;
      compaction_target = 0.5;
      scale = 1.0;
      seed;
    }

let train_options = Compiler.options_of_flags ~training:true ~compact:true ~fusion:true ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- spans and counters ------------------------------------------- *)

let test_span_nesting () =
  let obs = Obs.create () in
  Obs.time obs ~kind:"pass" "outer" (fun () ->
      Obs.time obs ~kind:"pass" "inner_a" (fun () -> ());
      Obs.time obs ~kind:"run" "inner_b" (fun () -> ()));
  Obs.time obs ~kind:"run" "second" (fun () -> ());
  match Obs.spans obs with
  | [ outer; second ] ->
      check_string "first root" "outer" outer.Obs.name;
      check_string "second root" "second" second.Obs.name;
      check_string "second kind" "run" second.Obs.kind;
      (match outer.Obs.children with
      | [ a; b ] ->
          check_string "child order chronological" "inner_a" a.Obs.name;
          check_string "second child" "inner_b" b.Obs.name;
          check_bool "children nested within parent" true
            (a.Obs.start_ms >= outer.Obs.start_ms
            && b.Obs.start_ms +. b.Obs.duration_ms
               <= outer.Obs.start_ms +. outer.Obs.duration_ms +. 1e-3)
      | l -> Alcotest.failf "expected two children, got %d" (List.length l));
      check_bool "roots chronological" true (outer.Obs.start_ms <= second.Obs.start_ms)
  | l -> Alcotest.failf "expected two roots, got %d" (List.length l)

let test_span_exception_safety () =
  let obs = Obs.create () in
  (try Obs.time obs ~kind:"pass" "boom" (fun () -> failwith "no") with Failure _ -> ());
  Obs.time obs ~kind:"pass" "after" (fun () -> ());
  match Obs.spans obs with
  | [ boom; after ] ->
      check_string "failed span recorded" "boom" boom.Obs.name;
      check_string "next span is a sibling, not a child" "after" after.Obs.name;
      check_int "no stray children" 0 (List.length after.Obs.children)
  | l -> Alcotest.failf "expected two roots, got %d" (List.length l)

let test_counters () =
  let obs = Obs.create () in
  Obs.add obs "launches" 3;
  Obs.add obs "launches" 2;
  Obs.add obs "syncs" 1;
  check_int "accumulated" 5 (Obs.counter obs "launches");
  check_int "independent" 1 (Obs.counter obs "syncs");
  check_int "unknown is zero" 0 (Obs.counter obs "nope");
  check_bool "sorted assoc" true (Obs.counters obs = [ ("launches", 5); ("syncs", 1) ]);
  Obs.reset obs;
  check_int "reset clears" 0 (Obs.counter obs "launches");
  check_int "reset clears spans" 0 (List.length (Obs.spans obs))

let test_disabled_no_allocation () =
  (* The disabled handle must be branch-only on the hot path: no minor
     allocation per call. *)
  let obs = Obs.disabled in
  check_bool "disabled" true (not (Obs.enabled obs));
  (* Warm up (first calls may allocate closures etc. once). *)
  for _ = 1 to 100 do
    Obs.add obs "x" 1
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.add obs "x" 1
  done;
  let after = Gc.minor_words () in
  let per_call = (after -. before) /. 10_000.0 in
  check_bool
    (Printf.sprintf "Obs.add on disabled handle allocates (%.3f words/call)" per_call)
    true (per_call < 0.01);
  check_int "nothing recorded" 0 (Obs.counter obs "x")

(* --- engine integration: attribution invariant -------------------- *)

let sum_by_op stats = List.fold_left (fun acc (_, e) -> acc +. e.Stats.time_ms) 0.0 (Stats.by_op stats)

let check_attribution_total name engine =
  let elapsed = Engine.elapsed_ms engine in
  let attributed = Stats.attributed_ms (Engine.stats engine) in
  let summed = sum_by_op (Engine.stats engine) in
  check_bool (name ^ ": clock advanced") true (elapsed > 0.0);
  let rel a b = Float.abs (a -. b) /. Float.max 1e-9 (Float.abs b) in
  check_bool
    (Printf.sprintf "%s: attributed (%.6f) covers elapsed (%.6f)" name attributed elapsed)
    true
    (rel attributed elapsed < 1e-9);
  check_bool (name ^ ": by_op sums to attributed") true (rel summed attributed < 1e-9)

let test_attribution_rgcn_train () =
  let graph = test_graph () in
  let compiled = Compiler.compile ~options:train_options (Models.rgcn ()) in
  let session = Session.create ~config:Session.Config.default ~graph compiled in
  Session.reset_clock session;
  let labels = Array.make 60 0 in
  let _loss = Session.train_step session ~labels () in
  check_attribution_total "rgcn train" (Session.engine session);
  (* every op row is a real name: nothing fell through to unattributed *)
  let ops = List.map fst (Stats.by_op (Engine.stats (Session.engine session))) in
  check_bool "no unattributed launches" true (not (List.mem Kernel.unattributed ops));
  check_bool "loss pseudo-op present" true (List.mem "loss" ops);
  check_bool "sgd pseudo-op present" true (List.mem "sgd" ops)

let test_attribution_with_host_sync () =
  let engine = Engine.create () in
  Engine.launch engine
    (Kernel.make ~provenance:(Kernel.provenance ~origin:"test" "gemm") ~category:Kernel.Gemm
       ~name:"k" ~flops:1e9 ~bytes_coalesced:1e6 ());
  Engine.host_sync engine ();
  Engine.launch engine
    (Kernel.make ~category:Kernel.Traversal ~name:"plain" ~flops:1e6 ~bytes_gathered:1e6 ());
  Engine.host_sync engine ~us:42.0 ();
  check_attribution_total "manual syncs" engine;
  let stats = Engine.stats engine in
  check_bool "sync op recorded" true ((Stats.of_op stats Stats.sync_op).Stats.time_ms > 0.0);
  check_int "sync not a launch" 0 (Stats.of_op stats Stats.sync_op).Stats.launches;
  check_bool "untagged launch lands on unattributed" true
    ((Stats.of_op stats Kernel.unattributed).Stats.time_ms > 0.0)

(* --- engine obs counters and reset behaviour ---------------------- *)

let test_engine_obs_counters () =
  let obs = Obs.create () in
  let engine = Engine.create ~obs () in
  Engine.launch engine (Kernel.make ~category:Kernel.Gemm ~name:"k" ~flops:1e9 ~bytes_coalesced:1e6 ());
  Engine.launch engine (Kernel.make ~category:Kernel.Gemm ~name:"k" ~flops:1e9 ~bytes_coalesced:1e6 ());
  Engine.host_sync engine ();
  check_int "launch counter" 2 (Obs.counter obs "engine.launches");
  check_int "sync counter" 1 (Obs.counter obs "engine.host_syncs")

let test_reset_clock_keep_events () =
  let engine = Engine.create ~trace:true () in
  Engine.launch engine (Kernel.make ~category:Kernel.Gemm ~name:"a" ~flops:1e9 ~bytes_coalesced:1e6 ());
  check_int "one event" 1 (List.length (Engine.events engine));
  Engine.reset_clock ~keep_events:true engine;
  check_bool "clock zeroed" true (Engine.elapsed_ms engine = 0.0);
  check_int "events kept" 1 (List.length (Engine.events engine));
  Engine.launch engine (Kernel.make ~category:Kernel.Gemm ~name:"b" ~flops:1e9 ~bytes_coalesced:1e6 ());
  check_int "timeline accumulates" 2 (List.length (Engine.events engine));
  Engine.reset_clock engine;
  check_int "default reset drops events" 0 (List.length (Engine.events engine))

let test_session_observability_config () =
  let graph = test_graph () in
  let obs = Obs.create () in
  let compiled = Compiler.compile ~obs ~options:train_options (Models.rgcn ()) in
  check_bool "compile spans recorded" true
    (List.exists (fun s -> s.Obs.name = "compile") (Obs.spans obs));
  let session =
    Session.create
      ~config:{ Session.Config.default with observability = Some obs }
      ~graph compiled
  in
  check_bool "session reports to configured handle" true (Session.obs session == obs);
  let labels = Array.make 60 0 in
  let _ = Session.train_step session ~labels () in
  check_bool "run spans recorded" true
    (List.exists
       (fun s -> String.length s.Obs.name >= 8 && String.sub s.Obs.name 0 8 = "run_plan")
       (Obs.spans obs));
  check_bool "launch counter advanced" true (Obs.counter obs "engine.launches" > 0);
  let metrics = Session.metrics_json session in
  check_bool "metrics include spans" true
    (String.length metrics > 0
    && contains metrics "\"spans\""
    && contains metrics "\"by_op\"")

(* --- metrics / trace export --------------------------------------- *)

let test_provenance_in_trace () =
  let graph = test_graph () in
  let compiled = Compiler.compile ~options:train_options (Models.rgcn ()) in
  let session =
    Session.create ~config:{ Session.Config.default with trace = true } ~graph compiled
  in
  let labels = Array.make 60 0 in
  let _ = Session.train_step session ~labels () in
  let events = Engine.events (Session.engine session) in
  check_bool "every launch carries provenance" true
    (events <> [] && List.for_all (fun (e : Engine.event) -> e.Engine.prov <> None) events);
  let trace = Session.chrome_trace session in
  check_bool "trace has provenance args" true (contains trace "\"origin\"")

(* --- knob parsing -------------------------------------------------- *)

let getenv_of assoc name = List.assoc_opt name assoc

let test_knobs_parse () =
  let p assoc = Knobs.parse (getenv_of assoc) in
  check_bool "empty env gives defaults" true (p [] = Knobs.defaults);
  check_bool "defaults: arena on, obs off, domains unset" true
    (Knobs.defaults.Knobs.arena && (not Knobs.defaults.Knobs.obs)
    && Knobs.defaults.Knobs.domains = None);
  check_bool "domains parsed" true ((p [ ("HECTOR_DOMAINS", "3") ]).Knobs.domains = Some 3);
  check_bool "domains capped" true
    ((p [ ("HECTOR_DOMAINS", "100000") ]).Knobs.domains = Some Domain_pool.max_domains);
  (* malformed values raise with a clear message instead of silently
     falling back — a typo'd knob must not be ignored *)
  let rejects name assoc =
    match p assoc with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument msg ->
        check_bool (name ^ " error names the knob") true
          (String.length msg > 6 && String.sub msg 0 6 = "Knobs:")
  in
  rejects "domains invalid" [ ("HECTOR_DOMAINS", "zero") ];
  rejects "domains nonpositive" [ ("HECTOR_DOMAINS", "0") ];
  rejects "domains negative" [ ("HECTOR_DOMAINS", "-4") ];
  check_bool "blank domains reads as unset" true
    ((p [ ("HECTOR_DOMAINS", "  ") ]).Knobs.domains = None);
  check_bool "arena off" true (not (p [ ("HECTOR_ARENA", "0") ]).Knobs.arena);
  check_bool "arena falsy word" true (not (p [ ("HECTOR_ARENA", "false") ]).Knobs.arena);
  rejects "arena junk" [ ("HECTOR_ARENA", "banana") ];
  check_bool "obs on" true (p [ ("HECTOR_OBS", "1") ]).Knobs.obs;
  check_bool "obs truthy word" true (p [ ("HECTOR_OBS", "true") ]).Knobs.obs;
  rejects "obs junk" [ ("HECTOR_OBS", "banana") ];
  (* the fault/checkpoint knobs ride the same validation *)
  check_bool "fault rate parsed" true
    ((p [ ("HECTOR_FAULT_RATE", "0.25") ]).Knobs.fault_rate = Some 0.25);
  rejects "fault rate above 1" [ ("HECTOR_FAULT_RATE", "1.5") ];
  rejects "fault rate junk" [ ("HECTOR_FAULT_RATE", "abc") ];
  check_bool "fault seed parsed" true
    ((p [ ("HECTOR_FAULT_SEED", "42") ]).Knobs.fault_seed = Some 42);
  rejects "fault seed junk" [ ("HECTOR_FAULT_SEED", "4.2") ];
  check_bool "ckpt keep parsed" true
    ((p [ ("HECTOR_CKPT_KEEP", "3") ]).Knobs.ckpt_keep = Some 3);
  rejects "ckpt keep zero" [ ("HECTOR_CKPT_KEEP", "0") ];
  check_bool "ckpt dir passes through" true
    ((p [ ("HECTOR_CKPT_DIR", "/tmp/ck") ]).Knobs.ckpt_dir = Some "/tmp/ck")

let test_knobs_refresh () =
  Unix.putenv "HECTOR_OBS" "1";
  let k = Knobs.refresh () in
  check_bool "refresh sees env" true k.Knobs.obs;
  Unix.putenv "HECTOR_OBS" "0";
  check_bool "cached until refresh" true (Knobs.current ()).Knobs.obs;
  let k = Knobs.refresh () in
  check_bool "refresh sees change" true (not k.Knobs.obs)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "disabled handle allocates nothing" `Quick test_disabled_no_allocation;
    Alcotest.test_case "attribution total: rgcn train" `Quick test_attribution_rgcn_train;
    Alcotest.test_case "attribution total: host syncs" `Quick test_attribution_with_host_sync;
    Alcotest.test_case "engine obs counters" `Quick test_engine_obs_counters;
    Alcotest.test_case "reset_clock keep_events" `Quick test_reset_clock_keep_events;
    Alcotest.test_case "configured observability handle" `Quick test_session_observability_config;
    Alcotest.test_case "provenance on every launch" `Quick test_provenance_in_trace;
    Alcotest.test_case "knobs parse" `Quick test_knobs_parse;
    Alcotest.test_case "knobs refresh" `Quick test_knobs_refresh;
  ]
