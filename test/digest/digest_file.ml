(* The digest format shared by [train_digest] and [serve_digest]: named
   runs of named float vectors, every float a hex literal (["%h"], exact),
   and the [--against] comparison of two digests. *)

(* One run: its key and its named float vectors, in a fixed order. *)
type run = { key : string; fields : (string * float array) list }

let print_run oc r =
  Printf.fprintf oc "run %s\n" r.key;
  List.iter
    (fun (name, v) ->
      Printf.fprintf oc "%s %d" name (Array.length v);
      Array.iter (fun x -> Printf.fprintf oc " %h" x) v;
      output_char oc '\n')
    r.fields

(* The reader of [print_run]'s format: a field line is its name (one or
   two words), its length, then that many hex floats. *)
let read_digest file =
  let ic = open_in file in
  let runs = ref [] and cur = ref None in
  let flush () = Option.iter (fun (key, fields) -> runs := { key; fields = List.rev fields } :: !runs) !cur in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "run"; key ] ->
           flush ();
           cur := Some (key, [])
       | words -> (
           let rec split name = function
             | n :: rest when int_of_string_opt n <> None -> (name, int_of_string n, rest)
             | w :: rest -> split (if name = "" then w else name ^ " " ^ w) rest
             | [] -> failwith ("malformed digest line in " ^ file)
           in
           let name, len, values = split "" words in
           let v = Array.of_list (List.map float_of_string values) in
           if Array.length v <> len then failwith ("truncated field " ^ name ^ " in " ^ file);
           match !cur with
           | Some (key, fields) -> cur := Some (key, (name, v) :: fields)
           | None -> failwith ("field before any run in " ^ file))
     done
   with End_of_file -> close_in ic);
  flush ();
  List.rev !runs

(* 0 for equal bits, else |a - b| / max(|a|, |b|) (1 across a sign
   change through zero, infinity where only one side is NaN). *)
let rel_diff a b =
  if Int64.bits_of_float a = Int64.bits_of_float b then 0.0
  else if Float.is_nan a || Float.is_nan b then infinity
  else
    let m = Float.max (Float.abs a) (Float.abs b) in
    if m = 0.0 then 0.0 else Float.abs (a -. b) /. m

let compare_against file mine =
  let theirs = read_digest file in
  let worst = ref 0.0 and bad = ref false and differs = ref false in
  List.iter
    (fun r ->
      match List.find_opt (fun t -> t.key = r.key) theirs with
      | None ->
          bad := true;
          Printf.printf "%-18s missing from %s\n" r.key file
      | Some t when List.map fst t.fields <> List.map fst r.fields
                    || List.exists2 (fun (_, a) (_, b) -> Array.length a <> Array.length b) t.fields r.fields ->
          bad := true;
          Printf.printf "%-18s different fields or shapes\n" r.key
      | Some t ->
          let differ = ref 0 and total = ref 0 and run_worst = ref 0.0 in
          List.iter2
            (fun (_, a) (_, b) ->
              Array.iteri
                (fun i x ->
                  incr total;
                  let d = rel_diff x b.(i) in
                  if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then incr differ;
                  if d > !run_worst then run_worst := d)
                a)
            r.fields t.fields;
          if !run_worst > !worst then worst := !run_worst;
          if !differ > 0 then differs := true;
          Printf.printf "%-18s %7d of %7d values differ, largest relative difference %.3g\n" r.key
            !differ !total !run_worst)
    mine;
  Printf.printf "largest relative difference over all runs: %.3g\n" !worst;
  if !bad then exit 1;
  if !differs then exit 3

(* The command line both tools share: [--domains N] sizes the pool, and
   [--against FILE] compares with a digest instead of printing one. *)
let main ~usage runs =
  let domains = ref None and against = ref None in
  Arg.parse
    [
      ("--domains", Arg.Int (fun n -> domains := Some n), "N  run on N domains (default: the pool's own sizing)");
      ("--against", Arg.String (fun f -> against := Some f), "FILE  compare with a digest instead of printing one");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Hector_tensor.Domain_pool.set_num_domains !domains;
  let mine = runs () in
  match !against with None -> List.iter (print_run stdout) mine | Some file -> compare_against file mine
