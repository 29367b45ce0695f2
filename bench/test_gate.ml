(* The regression gate's failure modes, one case each, plus the writer ->
   Hector_json.parse round trip the baselines rely on. *)

open Gate

let run =
  [
    ("s/time", [ ("sim_ms", Time 1.0) ]);
    ("s/count", [ ("launches", Count 10) ]);
    ("s/inv", [ ("steps", Invariant { value = 0.0; expected = 0.0 }) ]);
  ]

let baseline = [ (("s/time", "sim_ms"), 1.0); (("s/count", "launches"), 10.0) ]

let failures ?baseline entries = List.length (check ?baseline entries)

let replace name metric =
  List.map (fun (n, ms) -> if String.equal n name then (n, metric) else (n, ms)) run

let test_passes () =
  Alcotest.(check int) "identical run passes" 0 (failures ~baseline run);
  Alcotest.(check int) "time within tolerance passes" 0
    (failures ~baseline (replace "s/time" [ ("sim_ms", Time 1.149) ]));
  Alcotest.(check int) "fewer launches pass" 0
    (failures ~baseline (replace "s/count" [ ("launches", Count 9) ]));
  Alcotest.(check int) "a metric new to the baseline passes" 0
    (failures ~baseline (("s/new", [ ("ratio", Time 3.0) ]) :: run))

let test_missing_metric () =
  Alcotest.(check int) "dropped entry fails" 1
    (failures ~baseline (List.filter (fun (n, _) -> n <> "s/count") run));
  Alcotest.(check int) "renamed field fails" 1
    (failures ~baseline (replace "s/time" [ ("ns", Time 1.0) ]))

let test_count_increase () =
  Alcotest.(check int) "one more launch fails" 1
    (failures ~baseline (replace "s/count" [ ("launches", Count 11) ]))

let test_broken_invariant () =
  let broken = replace "s/inv" [ ("steps", Invariant { value = 1.0; expected = 0.0 }) ] in
  Alcotest.(check int) "against a baseline" 1 (failures ~baseline broken);
  Alcotest.(check int) "without a baseline" 1 (failures broken)

let test_time_over_tolerance () =
  Alcotest.(check int) "16% slower fails" 1
    (failures ~baseline (replace "s/time" [ ("sim_ms", Time 1.16) ]));
  Alcotest.(check int) "anything above a zero baseline fails" 1
    (failures
       ~baseline:[ (("s/time", "sim_ms"), 0.0) ]
       (replace "s/time" [ ("sim_ms", Time 1e-6) ]))

let test_round_trip () =
  let entries =
    [
      ("a/b", [ ("sim_ms", Time 2.2276294); ("launches", Count 56) ]);
      ( "c",
        [
          ("ratio", Time 16.6666666667);
          ("launch_delta", Invariant { value = -1.0; expected = 0.0 });
        ] );
    ]
  in
  let meta =
    Hector_json.(Obj [ ("subsystem", Str "serve"); ("latency_ms", Obj [ ("p50", Num 2.2276294) ]) ])
  in
  Alcotest.(check (list (pair (pair string string) (float 0.0))))
    "values at 6-decimal precision"
    [
      (("a/b", "sim_ms"), 2.227629);
      (("a/b", "launches"), 56.0);
      (("c", "ratio"), 16.666667);
      (("c", "launch_delta"), -1.0);
    ]
    (of_json (to_json entries ~meta));
  Alcotest.(check int) "a run gated against its own output passes" 0
    (failures ~baseline:(of_json (to_json run ~meta)) run)

(* _meta keys and strings that need escaping leave the entries and the
   snapshot unchanged *)
let test_meta_escapes () =
  let key = "q\"b\\c\001" in
  let meta = Hector_json.(Obj [ (key, Obj [ (key, Str key); ("n", Num 0.1) ]) ]) in
  let text = to_json run ~meta in
  Alcotest.(check (list (pair (pair string string) (float 0.0))))
    "entries unchanged"
    [ (("s/time", "sim_ms"), 1.0); (("s/count", "launches"), 10.0); (("s/inv", "steps"), 0.0) ]
    (of_json text);
  Alcotest.(check bool) "_meta unchanged" true
    (Hector_json.member (Hector_json.parse text) "_meta" = Some meta)

let test_bad_baseline () =
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "missing file" true (is_error (read_baseline "no-such-baseline.json"));
  let path = Filename.temp_file "bench-gate" ".json" in
  Hector_json.write_atomic path "{\"s/time\": {\"sim_ms\": null}}";
  Alcotest.(check bool) "non-numeric field" true (is_error (read_baseline path));
  Sys.remove path

let () =
  Alcotest.run "bench-gate"
    [
      ( "gate",
        [
          Alcotest.test_case "passing runs" `Quick test_passes;
          Alcotest.test_case "missing metric fails" `Quick test_missing_metric;
          Alcotest.test_case "count increase fails" `Quick test_count_increase;
          Alcotest.test_case "broken invariant fails" `Quick test_broken_invariant;
          Alcotest.test_case "time over tolerance fails" `Quick test_time_over_tolerance;
          Alcotest.test_case "write/parse round trip" `Quick test_round_trip;
          Alcotest.test_case "_meta keys needing escapes" `Quick test_meta_escapes;
          Alcotest.test_case "bad baseline is an error" `Quick test_bad_baseline;
        ] );
    ]
