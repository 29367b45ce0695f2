(* Result output: the "name value unit" lines, the per-run result file
   with its method block, the final one-line summary, and the metric
   declarations read back from BENCHMARK.json. *)

module J = Hector_runtime.Json_lite
open Harness

(* Every digit of a measured value. *)
let num x = Printf.sprintf "%.17g" x
let str s = "\"" ^ J.escape s ^ "\""
let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

(* Registered metrics in registry order. *)
let ordered o =
  List.filter_map
    (fun (m : Metric.t) -> Option.map (fun v -> (m, v)) (List.assoc_opt m.Metric.name o.values))
    Metric.all

let print_lines o =
  List.iter (fun ((m : Metric.t), v) -> Printf.printf "%s %s %s\n" m.Metric.name (num v) m.Metric.unit) (ordered o);
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 o.layer_table in
  List.iter
    (fun (layer, ms) -> Printf.printf "# layer %-8s %10.4f ms/op  %5.1f%%\n" layer ms (100.0 *. ms /. total))
    o.layer_table

let summary_json (s : Sample.summary) =
  obj
    [
      ("n", string_of_int s.Sample.n);
      ("median", num s.Sample.median);
      ("p25", num s.Sample.p25);
      ("p75", num s.Sample.p75);
      ("p90", num s.Sample.p90);
    ]

let result_json ~workload ~(cfg : cfg) o =
  obj
    [
      ("workload", str workload);
      ("seed", string_of_int cfg.seed);
      ("traced", string_of_bool cfg.traced);
      ("correct", string_of_bool (o.failed = 0));
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ("failures", "[" ^ String.concat "," (List.rev_map str o.failures) ^ "]");
      ( "method",
        obj
          [
            ("nproc", string_of_int (Domain.recommended_domain_count ()));
            ("domains", string_of_int (Hector_tensor.Domain_pool.num_domains ()));
            ("ocaml", str Sys.ocaml_version);
            ("seed", string_of_int cfg.seed);
            ("duration_s", num cfg.seconds);
            ("setups", string_of_int cfg.setups);
            ("traced", string_of_bool cfg.traced);
            ("samples", obj (List.rev_map (fun (k, s) -> (k, summary_json s)) o.samples));
          ] );
      ( "metrics",
        obj
          (List.map
             (fun ((m : Metric.t), v) -> (m.Metric.name, obj [ ("value", num v); ("unit", str m.Metric.unit) ]))
             (ordered o)) );
      ("layer_table", obj (List.map (fun (l, ms) -> (l, num ms)) o.layer_table));
    ]

let chrome_json o = "{\"traceEvents\":[" ^ String.concat ",\n" o.trace_events ^ "]}\n"

(* --- BENCHMARK.json --------------------------------------------------- *)

type decl = { dname : string; dunit : string; dbetter : string }
type declared = { e2e : decl list; layer : decl list }

let read_declared path =
  let j = J.parse (J.read_file path) in
  let decls key =
    match J.member j key with
    | Some (J.Arr l) ->
        List.map
          (fun d ->
            { dname = J.str_field d "name"; dunit = J.str_field d "unit"; dbetter = J.str_field d "better" })
          l
    | _ -> raise J.Malformed
  in
  { e2e = decls "end_to_end"; layer = decls "per_layer" }

(* The final line: the declared metrics of this mode, or [Error] naming a
   declared metric the run did not produce. *)
let final_line ~declared ~traced o =
  let decls = if traced then declared.layer else declared.e2e in
  let missing = List.filter (fun d -> not (List.mem_assoc d.dname o.values)) decls in
  match missing with
  | d :: _ -> Error ("declared metric not produced: " ^ d.dname)
  | [] ->
      Ok
        (obj
           [
             ("correct", string_of_bool (o.failed = 0));
             ("attempted", string_of_int o.attempted);
             ("failed", string_of_int o.failed);
             ( "metrics",
               obj
                 (List.map
                    (fun d -> (d.dname, obj [ ("value", num (value o d.dname)); ("unit", str d.dunit) ]))
                    decls) );
           ])
