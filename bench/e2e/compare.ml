(* [hbench --compare A_DIR B_DIR]: the two sets of result files side by
   side, one row per workload x metric.  Runs are paired by seed, and each
   metric is judged against its bound in metric.ml:

   - identical: equal run for run;
   - changed, changed-worse: a metric fixed by the seed (bound 0) that is
     not identical;
   - improved: B wins at least 9/10 of the seed pairs (ties count for
     neither) and the medians differ by more than A's quartile spread —
     or every B run beats every A run;
   - unresolved: the per-seed ratios B/A spread (quartile distance over
     their median) wider than the bound, so the bound cannot be judged;
   - regressed: the median per-seed ratio is worse than 1 by more than the
     bound;
   - within: none of the above;
   - unpaired: no seed was run on both sides.

   Pairing by seed takes the spread that seeded inputs cause out of the
   ratios, leaving the spread of the host.  The exit code is 1 when an
   end-to-end metric regressed or a metric fixed by the seed got worse:
   per-layer timings locate a change, they do not gate it. *)

module J = Hector_runtime.Json_lite

type run = { workload : string; seed : int; traced : bool; metrics : (string * float) list }

let load_run path =
  match J.parse (J.read_file path) with
  | exception (J.Malformed | Sys_error _) -> None
  | j -> (
      match (J.member j "workload", J.member j "metrics") with
      | Some (J.Str workload), Some (J.Obj ms) ->
          let metrics =
            List.filter_map
              (fun (k, v) -> match J.member v "value" with Some (J.Num x) -> Some (k, x) | _ -> None)
              ms
          in
          Some { workload; seed = J.int_field j "seed" 0; traced = J.bool_field j "traced" false; metrics }
      | _ -> None)

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f -> load_run (Filename.concat dir f))

(* [a] and [b] are (seed, value) lists. *)
let verdict (m : Metric.t) a b =
  let worse x y = match m.Metric.better with Metric.Lower -> y > x | Metric.Higher -> y < x in
  let values l = Array.of_list (List.map snd l) in
  let sa = Sample.summary (values a) and sb = Sample.summary (values b) in
  let pairs = List.filter_map (fun (s, x) -> Option.map (fun y -> (x, y)) (List.assoc_opt s b)) a in
  (* > 1 when B is worse *)
  let ratio (x, y) = match m.Metric.better with Metric.Lower -> y /. x | Metric.Higher -> x /. y in
  let ratios = Array.of_list (List.map ratio (List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pairs)) in
  if pairs = [] then "unpaired"
  else if List.for_all (fun (x, y) -> x = y) pairs then "identical"
  else if m.Metric.bound = 0.0 then
    if worse sa.Sample.median sb.Sample.median then "changed-worse" else "changed"
  else
    let wins = List.length (List.filter (fun (x, y) -> worse y x) pairs) in
    let all_better = List.for_all (fun (_, x) -> List.for_all (fun (_, y) -> worse y x) b) a in
    if
      all_better
      || float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
         && Float.abs (sb.Sample.median -. sa.Sample.median) > sa.Sample.p75 -. sa.Sample.p25
    then "improved"
    else if ratios = [||] then "unpaired"
    else
      let r = Sample.summary ratios in
      if (r.Sample.p75 -. r.Sample.p25) /. r.Sample.median > m.Metric.bound then "unresolved"
      else if r.Sample.median -. 1.0 > m.Metric.bound then "regressed"
      else "within"

type row = {
  workload : string;
  traced : bool;
  metric : Metric.t;
  a : Sample.summary;
  b : Sample.summary;
  verdict : string;
}

let gates r =
  (Metric.is_end_to_end r.metric && String.equal r.verdict "regressed")
  || String.equal r.verdict "changed-worse"

let rows dir_a dir_b =
  let ra = load_dir dir_a and rb = load_dir dir_b in
  let keys = List.sort_uniq compare (List.map (fun (r : run) -> (r.workload, r.traced)) (ra @ rb)) in
  List.concat_map
    (fun (w, traced) ->
      let runs l = List.filter (fun (r : run) -> String.equal r.workload w && r.traced = traced) l in
      let a = runs ra and b = runs rb in
      let names =
        List.sort_uniq String.compare (List.concat_map (fun (r : run) -> List.map fst r.metrics) (a @ b))
      in
      List.filter_map
        (fun name ->
          let side l =
            List.filter_map
              (fun (r : run) -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt name r.metrics))
              l
          in
          let va = side a and vb = side b in
          let summary l = Sample.summary (Array.of_list (List.map snd l)) in
          match Metric.find_opt name with
          | Some metric when va <> [] && vb <> [] ->
              let verdict = verdict metric va vb in
              Some { workload = w; traced; metric; a = summary va; b = summary vb; verdict }
          | _ -> None)
        names)
    keys

let run dir_a dir_b =
  let rs = rows dir_a dir_b in
  Printf.printf "%-11s %-32s %12s %23s %12s %23s %6s  %s\n" "workload" "metric" "A median" "A [p25, p75]"
    "B median" "B [p25, p75]" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-11s %-32s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] %6.3f  %s\n"
        (if r.traced then r.workload ^ "*" else r.workload)
        r.metric.Metric.name r.a.Sample.median r.a.Sample.p25 r.a.Sample.p75 r.b.Sample.median r.b.Sample.p25
        r.b.Sample.p75 r.metric.Metric.bound r.verdict)
    rs;
  print_endline "(* = traced runs; bound 0 = fixed by the seed)";
  if List.exists gates rs then 1 else 0
