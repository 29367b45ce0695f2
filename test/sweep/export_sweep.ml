(* Which exported values does anything call?

   Usage, from the repository root:
     dune build @check
     ./_build/default/test/sweep/export_sweep.exe [--all] [BUILD_DIR]

   Reads every typed tree ([.cmt]/[.cmti]) under BUILD_DIR (default
   [_build/default]) in lib, bin, bench, examples and test.  Each value
   reference in an implementation carries the location of the declaration
   it resolved to — through opens, module aliases and the library wrapper
   modules alike — so a [val] in a [lib/] interface is called from outside
   its module exactly when some reference points at its [.mli] line (a
   module's own code resolves to its [.ml]).  Prints each such [val] with
   no caller, or with [--all] every [val] with the units that call it.
   [dune build @check] is needed first: it is what gives executables
   their [.cmt] files. *)

let uses : (string * int, string list) Hashtbl.t = Hashtbl.create 4096

let add_use unit (loc : Location.t) =
  let key = (loc.loc_start.pos_fname, loc.loc_start.pos_lnum) in
  if Filename.check_suffix (fst key) ".mli" then
    let prev = Option.value (Hashtbl.find_opt uses key) ~default:[] in
    if not (List.mem unit prev) then Hashtbl.replace uses key (unit :: prev)

let scan_implementation unit (s : Typedtree.structure) =
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with Texp_ident (_, _, vd) -> add_use unit vd.val_loc | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it s

(* (file, line, dotted name) of every value an interface declares,
   including those of nested signatures. *)
let rec declarations file prefix (s : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (file, vd.val_loc.loc_start.pos_lnum, prefix ^ vd.val_name.txt) ]
      | Tsig_module
          { md_name = { txt = Some n; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          declarations file (prefix ^ n ^ ".") s
      | _ -> [])
    s.sig_items

let rec typed_trees dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then typed_trees path
           else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then [ path ]
           else [])
  else []

let () =
  let all = Array.exists (( = ) "--all") Sys.argv in
  let root =
    match List.filter (fun a -> a <> "--all") (List.tl (Array.to_list Sys.argv)) with
    | [ d ] -> d
    | _ -> "_build/default"
  in
  (* a unit's typed tree may sit in both its byte/ and native/ object
     directories; read one *)
  let seen = Hashtbl.create 256 in
  let unit_key path =
    (Filename.basename (Filename.dirname (Filename.dirname path)), Filename.basename path)
  in
  let decls = ref [] in
  List.iter
    (fun sub ->
      List.iter
        (fun path ->
          let unit = Filename.basename path in
          if not (Hashtbl.mem seen (unit_key path)) then begin
            Hashtbl.add seen (unit_key path) ();
            let cmt = Cmt_format.read_cmt path in
            match cmt.cmt_annots with
            | Implementation s -> scan_implementation (Filename.remove_extension unit) s
            | Interface s -> (
                match cmt.cmt_sourcefile with
                | Some src when String.starts_with ~prefix:"lib/" src ->
                    decls := declarations src "" s :: !decls
                | _ -> ())
            | _ -> ()
          end)
        (typed_trees (Filename.concat root sub)))
    [ "lib"; "bin"; "bench"; "examples"; "test" ];
  List.iter
    (fun (file, line, name) ->
      let callers = Option.value (Hashtbl.find_opt uses (file, line)) ~default:[] in
      if all then Printf.printf "%s:%d\t%s\t%s\n" file line name (String.concat "," callers)
      else if callers = [] then Printf.printf "%s:%d\t%s\n" file line name)
    (List.concat (List.rev !decls))
