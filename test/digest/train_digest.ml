(* Training digest: the bits of 36 short training runs, for comparing two
   builds of the code.

     dune exec test/digest/train_digest.exe -- [--domains N] > parent.digest
     dune exec test/digest/train_digest.exe -- [--domains N] --against parent.digest

   Each run trains one of {aifb, am, fb15k} x {rgcn, rgat, hgt} x
   {U, C, F, C+F} for three SGD steps from a fixed seed, then records its
   three losses, every weight, the forward output after training and the
   simulated milliseconds, every float as a hex literal (["%h"], exact).
   Without [--against] the digest goes to stdout.  With [--against FILE]
   the tool compares its own runs with FILE's and prints, per run, the
   number of values whose bits differ and the largest relative
   difference, then the largest over all runs.  It exits 1 when a run is
   missing or has a different shape, else 3 when any value's bits differ,
   else 0.

   The digest is not a golden file for the test suite: the losses go
   through libm's [exp] and [log], which may round differently on another
   platform.  Compare digests made on the same machine. *)

module T = Hector_tensor.Tensor
module Ds = Hector_graph.Datasets
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Engine = Hector_gpu.Engine

let datasets = [ "aifb"; "am"; "fb15k" ]
let models = [ "rgcn"; "rgat"; "hgt" ]
let layouts = [ ("U", false, false); ("C", true, false); ("F", false, true); ("C+F", true, true) ]
let steps = 3

(* One run: its key and its named float vectors, in a fixed order. *)
type run = { key : string; fields : (string * float array) list }

let run_one graph ~dataset ~model (layout, compact, fusion) =
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact ~fusion ())
      (Hector_models.Model_defs.by_name model ~in_dim:16 ~out_dim:4 ())
  in
  let s = Session.create ~config:{ Session.Config.default with seed = 11 } ~graph compiled in
  let labels = Array.init graph.Hector_graph.Hetgraph.num_nodes (fun v -> v mod 4) in
  let losses = Array.init steps (fun _ -> Session.train_step s ~labels ()) in
  let weights = List.map (fun (n, w) -> ("weight " ^ n, T.to_flat_array w)) (Session.weights s) in
  let outputs = List.map (fun (n, o) -> ("forward " ^ n, T.to_flat_array o)) (Session.forward s) in
  {
    key = Printf.sprintf "%s/%s/%s" dataset model layout;
    fields =
      (("loss", losses) :: weights)
      @ outputs
      @ [ ("sim_ms", [| Engine.elapsed_ms (Session.engine s) |]) ];
  }

let runs () =
  List.concat_map
    (fun dataset ->
      let graph = Ds.load (Ds.find dataset) in
      List.concat_map
        (fun model -> List.map (run_one graph ~dataset ~model) layouts)
        models)
    datasets

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

let () =
  let domains = ref None and against = ref None in
  Arg.parse
    [
      ("--domains", Arg.Int (fun n -> domains := Some n), "N  run on N domains (default: the pool's own sizing)");
      ("--against", Arg.String (fun f -> against := Some f), "FILE  compare with a digest instead of printing one");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "train_digest [--domains N] [--against FILE]";
  Hector_tensor.Domain_pool.set_num_domains !domains;
  let mine = runs () in
  match !against with None -> List.iter (print_run stdout) mine | Some file -> compare_against file mine
