(* Typed benchmark metrics, and the one writer, reader and regression gate
   every bench suite shares.

   A suite's result is a list of entries, each a name with a list of
   (field, metric) pairs; the field names the unit (sim_ms, ns, ratio,
   launches, ...).  The JSON form is one line per entry,
   ["name": {"field": number, ...}], followed by a raw ["_meta"] snapshot
   that the gate never reads. *)

module Json = Hector_runtime.Json_lite

type metric =
  | Time of float
      (** lower is better; fails above baseline × (1 + {!tolerance}).  Simulated
          ms, wall-clock ns, or a ratio of such figures. *)
  | Count of int  (** exact, lower is better; fails on any increase over baseline *)
  | Invariant of { value : float; expected : float }
      (** fails unless [value = expected], on every run, baseline or not *)

type entry = string * (string * metric) list

type baseline = ((string * string) * float) list
(** (entry name, field) -> committed value *)

(* Simulated figures are deterministic, so this headroom only absorbs
   cost-model changes that forgot to regenerate a baseline, and wall-clock
   noise on the ns columns. *)
let tolerance = 0.15

let show = function
  | Time v -> Printf.sprintf "%.6f" v
  | Count n -> string_of_int n
  | Invariant { value; _ } -> Printf.sprintf "%.17g" value

let to_json (entries : entry list) ~meta =
  let entry (name, metrics) =
    Printf.sprintf "  \"%s\": {%s}" (Json.escape name)
      (String.concat ", "
         (List.map (fun (f, m) -> Printf.sprintf "\"%s\": %s" (Json.escape f) (show m)) metrics))
  in
  "{\n" ^ String.concat ",\n" (List.map entry entries @ [ "  \"_meta\": " ^ meta ]) ^ "\n}\n"

let of_json text : baseline =
  let field name = function
    | f, Json.Num v -> ((name, f), v)
    | _ -> raise Json.Malformed
  in
  match Json.parse text with
  | Json.Obj members ->
      List.concat_map
        (function
          | "_meta", _ -> []
          | name, Json.Obj fields -> List.map (field name) fields
          | _ -> raise Json.Malformed)
        members
  | _ -> raise Json.Malformed

let read_baseline path =
  match of_json (Json.read_file path) with
  | b -> Ok b
  | exception Sys_error msg -> Error msg
  | exception Json.Malformed -> Error (path ^ ": not a BENCH_*.json baseline")

(* Why [m] fails against its baseline value [base], or [None] when it
   passes. *)
let verdict m base =
  match (m, base) with
  | Invariant { value; expected }, _ ->
      if value = expected then None else Some (Printf.sprintf "expected %.17g" expected)
  | Time v, Some b when v > b *. (1.0 +. tolerance) ->
      Some (Printf.sprintf "above baseline %.6f by more than %.0f%%" b (tolerance *. 100.0))
  | Count n, Some b when float_of_int n > b -> Some (Printf.sprintf "above baseline %.0f" b)
  | _ -> None

(* Print one row per metric (and per baseline metric the run lacks) and
   return the failures; an empty list passes. *)
let check ?baseline (entries : entry list) =
  let base name field = Option.bind baseline (List.assoc_opt (name, field)) in
  let measured =
    List.concat_map
      (fun (name, metrics) ->
        List.filter_map
          (fun (field, m) ->
            let b = base name field in
            let why = verdict m b in
            Printf.printf "  %-30s %-13s %16s%s  %s\n" name field (show m)
              (match (b, m) with
              | Some b, Time v when b > 0.0 -> Printf.sprintf "  (%.2fx)" (v /. b)
              | Some b, (Time _ | Count _) -> Printf.sprintf "  (baseline %g)" b
              | _ -> "")
              (match why with None -> "ok" | Some w -> "FAIL: " ^ w);
            Option.map (Printf.sprintf "%s %s %s" name field) why)
          metrics)
      entries
  in
  let missing =
    List.filter_map
      (fun ((name, field), _) ->
        match Option.bind (List.assoc_opt name entries) (List.assoc_opt field) with
        | Some _ -> None
        | None ->
            Printf.printf "  %-30s %-13s %16s  FAIL: missing from the run\n" name field "-";
            Some (Printf.sprintf "%s %s missing from the run" name field))
      (Option.value baseline ~default:[])
  in
  measured @ missing
