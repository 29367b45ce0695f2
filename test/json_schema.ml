(* Checks on printed JSON documents, made on the parsed value: the shared
   metrics envelope every subsystem's [metrics_json] carries, and the
   fields of a Chrome-trace event. *)

module Json = Hector_json

(* What a reader of the document sees: the value printed, then parsed. *)
let reparse v = Json.parse (Json.to_string v)

let field doc key =
  match Json.member doc key with Some v -> v | None -> Alcotest.failf "missing key %S" key

let num doc key =
  match field doc key with Json.Num f -> f | _ -> Alcotest.failf "%S is not a number" key

let int doc key =
  let f = num doc key in
  if not (Float.is_integer f) then Alcotest.failf "%S = %g is not an integer" key f;
  int_of_float f

(* [metrics] printed and parsed: "subsystem" a string equal to
   [subsystem], "elapsed_ms" a number, "launches" an integer, and "comm"
   an object of exactly three numbers.  Returns the parsed document. *)
let envelope ~subsystem metrics =
  let doc = reparse metrics in
  (match field doc "subsystem" with
  | Json.Str s -> Alcotest.(check string) "subsystem tag" subsystem s
  | _ -> Alcotest.fail "subsystem is not a string");
  ignore (num doc "elapsed_ms");
  ignore (int doc "launches");
  (match field doc "comm" with
  | Json.Obj
      [ ("posted_ms", Json.Num _); ("exposed_ms", Json.Num _); ("overlap_ratio", Json.Num _) ] ->
      ()
  | _ -> Alcotest.failf "%s: comm is not {posted_ms, exposed_ms, overlap_ratio}" subsystem);
  doc

(* The events of a Chrome-trace document, each checked for the keys a
   trace viewer needs. *)
let trace_events text =
  match Json.member (Json.parse text) "traceEvents" with
  | Some (Json.Arr events) ->
      List.iter
        (fun ev ->
          List.iter
            (fun key -> ignore (field ev key))
            [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ])
        events;
      events
  | _ -> Alcotest.fail "no traceEvents array"
