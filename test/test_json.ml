(* The one JSON encoder: printer/parser round trip over every byte and
   awkward float, the \u escapes the parser decodes, the number format,
   and the integer accessors' range checks. *)

module Json = Hector_json

let check_string = Alcotest.(check string)

(* structural equality, floats compared bit for bit (so -0.0 <> 0.0) *)
let rec same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr l, Arr m -> List.equal same l m
  | Obj l, Obj m -> List.equal (fun (k, x) (k', y) -> String.equal k k' && same x y) l m
  | a, b -> a = b

let gen_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, char); (1, oneofl [ '"'; '\\'; '\000'; '\001'; '\n'; '\t'; '\x1f'; '\x7f'; '\xff' ]) ]
  in
  string_size ~gen:byte (int_bound 10)

let gen_float =
  let open QCheck.Gen in
  oneof
    [
      map (fun f -> if Float.is_finite f then f else 0.0) float;
      oneofl
        [ -0.0; 0.0; 5e-324; 2.225073858507201e-308; 1e300; -1e300; 0.1; 1.0 /. 3.0; 0x1p53 ];
      map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
    ]

let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) gen_float;
        map (fun s -> Json.Str s) gen_string;
      ]
  in
  sized_size (int_bound 16)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let items g = list_size (int_bound 4) g in
           frequency
             [
               (1, leaf);
               (1, map (fun l -> Json.Arr l) (items (self (n / 2))));
               (1, map (fun l -> Json.Obj l) (items (pair gen_string (self (n / 2)))));
             ])

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v -> same (Json.parse (Json.to_string v)) v)

let test_control_bytes () =
  check_string "printed" "\"x\\u0001y\"" (Json.to_string (Str "x\001y"));
  Alcotest.(check bool) "parsed back" true
    (Json.parse (Json.to_string (Str "x\001y")) = Str "x\001y")

let test_unicode_escapes () =
  let str s = match Json.parse s with Json.Str s -> s | _ -> Alcotest.fail "not a string" in
  check_string "below 0x80 is the byte" "A\001" (str {|"A\u0001"|});
  check_string "above is UTF-8" "\xc3\xa9\xe2\x82\xac" (str {|"\u00e9\u20ac"|});
  check_string "a surrogate pair is one code point" "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|});
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "%s accepted" bad
      | exception Json.Malformed -> ())
    [ {|"\u00zz"|}; {|"\u12"|}; {|"\ude00"|}; {|"\ud83d"|}; {|"\ud83dA"|}; "\"x\001y\"" ]

let test_number_format () =
  List.iter
    (fun (expected, f) -> check_string expected expected (Json.to_string (Num f)))
    [
      ("56", 56.0);
      ("-0", -0.0);
      ("9007199254740992", 0x1p53);
      ("0.1", 0.1);
      ("0.3333333333333333", 1.0 /. 3.0);
      ("1e+300", 1e300);
      ("5e-324", 5e-324);
      ("null", Float.nan);
      ("null", Float.infinity);
    ];
  check_string "compact" {|{"a":[1,true,null],"b":{}}|}
    (Json.to_string (Obj [ ("a", Arr [ Num 1.0; Bool true; Null ]); ("b", Obj []) ]))

let test_int_fields () =
  let doc = Json.parse {|{"i":3,"half":0.5,"big":1e300,"arr":[1,2.5]}|} in
  Alcotest.(check int) "integral" 3 (Json.int_field doc "i" 0);
  Alcotest.(check int) "missing is the default" 7 (Json.int_field doc "none" 7);
  List.iter
    (fun (label, f) ->
      match f () with
      | _ -> Alcotest.failf "%s accepted" label
      | exception Json.Malformed -> ())
    [
      ("fraction", fun () -> Json.int_field doc "half" 0);
      ("beyond 2^53", fun () -> Json.int_field doc "big" 0);
      ("fractional element", fun () -> (Json.int_array_field doc "arr").(0));
    ]

let suite =
  [
    Alcotest.test_case "control bytes round-trip" `Quick test_control_bytes;
    Alcotest.test_case "\\u escapes decode, raw control bytes fail" `Quick test_unicode_escapes;
    Alcotest.test_case "number format" `Quick test_number_format;
    Alcotest.test_case "integer fields are checked" `Quick test_int_fields;
    QCheck_alcotest.to_alcotest prop_round_trip;
  ]
