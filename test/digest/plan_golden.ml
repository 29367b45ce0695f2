(* Plan golden: one line per compiled configuration, for checking that a
   compiler change leaves every plan as it was.

     dune exec test/digest/plan_golden.exe > plan_golden.out

   Each line names a configuration (model / layout / inference or
   training / inter-op fusion on or off) and holds the MD5 of its
   rendering: the forward and backward [Plan.pp], each plan's memory
   placements (slot, first, last, uninit_ok) and its [Plan.spaces], which
   [Plan.pp] does not print.  A configuration the compiler rejects is
   recorded as [rejected] with the exception it raised.  Printing a plan
   does no floating-point arithmetic, so unlike [train_digest] the output
   is the same on every platform; [dune runtest] compares it with
   [plan_golden.expected], and [dune promote] re-records that file. *)

module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Mat = Hector_core.Materialization
module Md = Hector_models.Model_defs

let models =
  [
    ("rgcn", fun () -> Md.rgcn ());
    ("rgat", fun () -> Md.rgat ());
    ("hgt", fun () -> Md.hgt ());
    ("rgat_2head", fun () -> Md.rgat_multihead ~heads:2 ());
    ("hgt_2head", fun () -> Md.hgt_multihead ~heads:2 ());
    ("rgcn_2layer", fun () -> Md.rgcn_two_layer ());
  ]

let layouts = [ ("U", false, false); ("C", true, false); ("F", false, true); ("C+F", true, true) ]

let render_plan buf (plan : Plan.t) =
  Buffer.add_string buf (Format.asprintf "%a\n" Plan.pp plan);
  (match plan.Plan.memory with
  | None -> Buffer.add_string buf "memory none\n"
  | Some m ->
      Printf.bprintf buf "memory slots=%d\n" m.Plan.num_slots;
      List.iter
        (fun (p : Plan.placement) ->
          Printf.bprintf buf "  %s slot=%d first=%d last=%d uninit_ok=%b\n" p.Plan.var p.Plan.slot
            p.Plan.first p.Plan.last p.Plan.uninit_ok)
        m.Plan.placements);
  List.iter
    (fun ((scope, n), space) ->
      Printf.bprintf buf "space %s %s %s\n"
        (match scope with `Node -> "node" | `Edge -> "edge")
        n (Mat.space_name space))
    plan.Plan.spaces

let line (model, program) (layout, compact, fusion) training fuse_ops =
  let key =
    Printf.sprintf "%s/%s/%s/%s" model layout
      (if training then "train" else "infer")
      (if fuse_ops then "fuse" else "nofuse")
  in
  match
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training ~fuse_ops ~compact ~fusion ())
      (program ())
  with
  | c ->
      let buf = Buffer.create 4096 in
      render_plan buf c.Compiler.forward;
      Option.iter (render_plan buf) c.Compiler.backward;
      Printf.sprintf "%s %s" key (Digest.to_hex (Digest.string (Buffer.contents buf)))
  | exception e -> Printf.sprintf "%s rejected: %s" key (Printexc.to_string e)

let () =
  List.iter
    (fun m ->
      List.iter
        (fun l ->
          List.iter
            (fun training -> List.iter (fun fuse -> print_endline (line m l training fuse)) [ true; false ])
            [ false; true ])
        layouts)
    models
