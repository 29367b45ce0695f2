(* hbench: the end-to-end benchmark of Hector on both clocks.  See
   README.md for the workloads, the metrics and the method. *)

let usage =
  {|usage:
  hbench --workload W --seed S [--duration SECS] [--trace] [--out DIR] [--benchmark FILE]
      run one workload; prints every metric as "name value unit", writes
      DIR/W-sS-{e2e,trace}.json when --out is given, and ends with a
      one-line JSON summary of the metrics FILE (default BENCHMARK.json)
      declares: end-to-end ones, or per-layer ones with --trace.
      The duration defaults to 20 s.
  hbench --compare A_DIR B_DIR
      compare two sets of result files, one row per workload x metric
  hbench --smoke --out DIR [--workload W] [--benchmark FILE]
      every workload (or W) traced at 0.5 s with one set-up; checks that
      each declared metric is produced, finite and in its unit, and that
      its result file compares identical with itself
workloads: |}
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hbench: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

(* cold set-ups per run, whose median is [setup_s] *)
let setups = 3

type opts = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float;
  mutable traced : bool;
  mutable out : string option;
  mutable benchmark : string;
  mutable compare : (string * string) option;
  mutable smoke : bool;
}

let parse argv =
  let o =
    {
      workload = None;
      seed = None;
      seconds = 20.0;
      traced = false;
      out = None;
      benchmark = "BENCHMARK.json";
      compare = None;
      smoke = false;
    }
  in
  let number flag conv v =
    match conv v with Some x -> x | None -> die "%s expects a number, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | "--workload" :: w :: rest ->
        if Workloads.find w = None then die "unknown workload %S" w;
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- Some (number "--seed" int_of_string_opt s);
        go rest
    (* BENCHMARK.json's command is run with [--seconds N --trace 0|1], so
       those spellings are accepted beside [--duration] and [--trace]. *)
    | ("--duration" | "--seconds") :: s :: rest ->
        let d = number "--duration" float_of_string_opt s in
        if not (d > 0.0) then die "--duration must be positive";
        o.seconds <- d;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.traced <- String.equal v "1";
        go rest
    | "--trace" :: rest ->
        o.traced <- true;
        go rest
    | "--out" :: d :: rest ->
        o.out <- Some d;
        go rest
    | "--benchmark" :: f :: rest ->
        o.benchmark <- f;
        go rest
    | "--compare" :: a :: b :: rest ->
        o.compare <- Some (a, b);
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | flag :: _ -> die "unknown or incomplete argument %S" flag
  in
  go (List.tl (Array.to_list argv));
  o

let read_declared path =
  match Report.read_declared path with
  | d -> d
  | exception (Sys_error _ | Hector_runtime.Json_lite.Malformed) ->
      prerr_endline ("hbench: cannot read metric declarations from " ^ path);
      exit 2

(* One run of one workload, pinned to one domain.  A traced run splits
   the duration between its untraced and traced windows. *)
let run_workload (w : Workloads.t) (cfg : Harness.cfg) =
  Hector_tensor.Domain_pool.set_num_domains (Some 1);
  let o = Harness.outcome () in
  let window = if cfg.Harness.traced then cfg.Harness.seconds /. 2.0 else cfg.Harness.seconds in
  w.Workloads.run { cfg with Harness.seconds = window } o;
  Harness.set o "failed_frac" (float_of_int o.Harness.failed /. float_of_int (max 1 o.Harness.attempted));
  List.iter
    (fun (name, v) -> if not (Float.is_finite v) then Harness.fail o ("non-finite metric " ^ name))
    o.Harness.values;
  o

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The result file (and, traced, the Chrome trace) of a run in [dir]. *)
let write_results dir ~workload (cfg : Harness.cfg) o =
  let write name data = Hector_runtime.Json_lite.write_atomic (Filename.concat dir name) data in
  mkdir_p dir;
  let stem =
    Printf.sprintf "%s-s%d-%s" workload cfg.Harness.seed (if cfg.Harness.traced then "trace" else "e2e")
  in
  write (stem ^ ".json") (Report.result_json ~workload ~cfg o ^ "\n");
  if cfg.Harness.traced then write (stem ^ "-chrome.json") (Report.chrome_json o)

let run opts workload seed =
  let declared = read_declared opts.benchmark in
  let w = Option.get (Workloads.find workload) in
  let cfg = { Harness.seed; seconds = opts.seconds; setups; traced = opts.traced } in
  let o =
    try run_workload w cfg
    with e ->
      Printf.eprintf "hbench: %s failed: %s\n" workload (Printexc.to_string e);
      exit 1
  in
  Report.print_lines o;
  Option.iter (fun dir -> write_results dir ~workload cfg o) opts.out;
  List.iter (fun f -> Printf.eprintf "hbench: %s\n" f) (List.rev o.Harness.failures);
  match Report.final_line ~declared ~traced:opts.traced o with
  | Error msg ->
      prerr_endline ("hbench: " ^ msg);
      exit 2
  | Ok line ->
      print_endline line;
      exit (if o.Harness.failed = 0 then 0 else 1)

let smoke opts out workloads =
  let declared = read_declared opts.benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      let t0 = Unix.gettimeofday () in
      let cfg = { Harness.seed = 1; seconds = 0.5; setups = 1; traced = true } in
      let o = run_workload w cfg in
      List.iter (fun f -> problem "%s: %s" w.Workloads.name f) o.Harness.failures;
      write_results out ~workload:w.Workloads.name cfg o;
      let rows =
        List.filter
          (fun (r : Compare.row) -> String.equal r.Compare.workload w.Workloads.name)
          (Compare.rows out out)
      in
      List.iter
        (fun (d : Report.decl) ->
          match (List.assoc_opt d.Report.dname o.Harness.values, Metric.find_opt d.Report.dname) with
          | None, _ -> problem "%s: declared metric %s not produced" w.Workloads.name d.Report.dname
          | _, None -> problem "declared metric %s is not registered" d.Report.dname
          | Some _, Some m when not (String.equal m.Metric.unit d.Report.dunit) ->
              problem "%s: unit %S declared, %S measured" d.Report.dname d.Report.dunit m.Metric.unit
          | Some _, Some m when not (String.equal (Metric.better_name m.Metric.better) d.Report.dbetter) ->
              problem "%s: declared %s-is-better" d.Report.dname d.Report.dbetter
          | Some _, Some _ -> (
              match
                List.find_opt
                  (fun (r : Compare.row) -> String.equal r.Compare.metric.Metric.name d.Report.dname)
                  rows
              with
              | Some r when String.equal r.Compare.verdict "identical" -> ()
              | Some r ->
                  problem "%s: %s compares %s with itself" w.Workloads.name d.Report.dname r.Compare.verdict
              | None ->
                  problem "%s: %s missing from the compared result file" w.Workloads.name d.Report.dname))
        (declared.Report.e2e @ declared.Report.layer);
      Printf.printf "smoke %-10s %3d metrics  %.1f s\n%!" w.Workloads.name
        (List.length o.Harness.values) (Unix.gettimeofday () -. t0))
    workloads;
  match !problems with
  | [] -> print_endline "smoke: every declared metric produced, finite, in its unit and read back"
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  let opts = parse Sys.argv in
  match (opts.compare, opts.smoke, opts.workload, opts.seed) with
  | Some (a, b), false, None, None -> exit (Compare.run a b)
  | None, true, w, None -> (
      match opts.out with
      | None -> die "--smoke needs --out DIR"
      | Some out ->
          smoke opts out (match w with Some w -> [ Option.get (Workloads.find w) ] | None -> Workloads.all))
  | None, false, Some w, Some s -> run opts w s
  | _ -> die "give --workload and --seed, or --compare A_DIR B_DIR, or --smoke --out DIR"
