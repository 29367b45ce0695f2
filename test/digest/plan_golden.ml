(* Plan and launch goldens: one line per compiled configuration, for
   checking that a compiler change leaves every plan as it was and that a
   runtime change leaves every launch as it was.

     dune exec test/digest/plan_golden.exe > plan_golden.out
     dune exec test/digest/plan_golden.exe -- --launches > launch_golden.out

   Each line names a configuration (model / layout / inference or
   training / inter-op fusion on or off) and holds the MD5 of its
   rendering: the forward and backward [Plan.pp], each plan's memory
   placements (slot, first, last, uninit_ok) and its [Plan.spaces], which
   [Plan.pp] does not print.  A configuration the compiler rejects is
   recorded as [rejected] with the exception it raised.  Printing a plan
   does no floating-point arithmetic, so unlike [train_digest] the output
   is the same on every platform; [dune runtest] compares it with
   [plan_golden.expected], and [dune promote] re-records that file.

   With [--launches] each line instead holds the MD5 of the launches the
   configuration executes on a small fixed graph: a traced session runs
   one warm-up epoch (a forward, or a training step), resets its clock and
   runs one steady-state epoch.  Per launch, in order, the rendering has
   its name, category, simulated milliseconds (as a hex float) and
   provenance (op, step, origin, fused ops); then per kernel name the
   engine statistics' launch count, flops and bytes.  The costs are
   IEEE-754 sums, products and quotients plus one [log2] (CSR adjacency),
   so the file is the same wherever libm's [log2] is correctly rounded on
   integers; [dune runtest] compares it with [launch_golden.expected].

   After those, [--launches] prints the sampled-block lines: for RGCN, RGAT
   and HGT under U and C+F, a serving replica answering three batches
   whose blocks grow and then shrink ([serve]), and a mini-batch trainer
   taking two steps ([minibatch]).  A block replica's engine keeps no
   timeline, so each batch or step is rendered from the engine's
   statistics after it: the clock, per kernel name its launch count,
   simulated milliseconds, flops and bytes, per provenance op its launch
   count and milliseconds, and the device's allocation count and peak. *)

module Compiler = Hector_core.Compiler
module Plan = Hector_core.Plan
module Mat = Hector_core.Materialization
module Md = Hector_models.Model_defs
module Session = Hector_runtime.Session
module Minibatch = Hector_runtime.Minibatch
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload
module Memory = Hector_gpu.Memory
module Engine = Hector_gpu.Engine
module Kernel = Hector_gpu.Kernel
module Stats = Hector_gpu.Stats
module G = Hector_graph.Hetgraph

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
  let m = plan.Plan.memory in
  Printf.bprintf buf "memory slots=%d\n" m.Plan.num_slots;
  List.iter
    (fun (p : Plan.placement) ->
      Printf.bprintf buf "  %s slot=%d first=%d last=%d uninit_ok=%b\n" p.Plan.var p.Plan.slot
        p.Plan.first p.Plan.last p.Plan.uninit_ok)
    m.Plan.placements;
  List.iter
    (fun ((scope, n), space) ->
      Printf.bprintf buf "space %s %s %s\n"
        (match scope with `Node -> "node" | `Edge -> "edge")
        n (Mat.space_name space))
    plan.Plan.spaces

let render_plans buf (c : Compiler.compiled) =
  render_plan buf c.Compiler.forward;
  Option.iter (render_plan buf) c.Compiler.backward

(* The graph every launch digest runs on: three node types, six relations,
   charged at four times its physical size. *)
let graph =
  lazy
    (Hector_graph.Generator.generate
       {
         Hector_graph.Generator.name = "launch_golden";
         num_ntypes = 3;
         num_etypes = 6;
         num_nodes = 60;
         num_edges = 200;
         compaction_target = 0.4;
         scale = 4.0;
         seed = 5;
       })

let render_launches buf (c : Compiler.compiled) =
  let graph = Lazy.force graph in
  let s = Session.create ~config:{ Session.Config.default with trace = true } ~graph c in
  let epoch =
    if c.Compiler.options.Compiler.training then
      let labels = Array.init graph.G.num_nodes (fun v -> v mod Session.output_dim s) in
      fun () -> ignore (Session.train_step s ~labels ())
    else fun () -> ignore (Session.forward s)
  in
  epoch ();
  Session.reset_clock s;
  epoch ();
  let engine = Session.engine s in
  List.iter
    (fun (e : Engine.event) ->
      Printf.bprintf buf "%s %s %h" e.Engine.name (Kernel.category_name e.Engine.category)
        e.Engine.duration_ms;
      (match e.Engine.prov with
      | None -> Buffer.add_string buf " -"
      | Some p ->
          Printf.bprintf buf " op=%s step=%d origin=%s fused=%s" p.Kernel.op p.Kernel.step p.Kernel.origin
            (String.concat "," p.Kernel.fused));
      Buffer.add_char buf '\n')
    (Engine.events engine);
  List.iter
    (fun (name, (e : Stats.entry)) ->
      Printf.bprintf buf "kernel %s launches=%d flops=%h bytes=%h\n" name e.Stats.launches e.Stats.flops
        e.Stats.bytes)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) (Stats.by_kernel (Engine.stats engine)))

(* The cumulative statistics of a block replica's engine. *)
let render_stats buf engine =
  let st = Engine.stats engine and mem = Engine.memory engine in
  let by_name l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  Printf.bprintf buf "clock %h allocs=%d peak=%h\n" (Engine.elapsed_ms engine) (Memory.alloc_count mem)
    (Memory.peak_bytes mem);
  List.iter
    (fun (name, (e : Stats.entry)) ->
      Printf.bprintf buf "kernel %s launches=%d ms=%h flops=%h bytes=%h\n" name e.Stats.launches
        e.Stats.time_ms e.Stats.flops e.Stats.bytes)
    (by_name (Stats.by_kernel st));
  List.iter
    (fun (op, (e : Stats.entry)) ->
      Printf.bprintf buf "op %s launches=%d ms=%h\n" op e.Stats.launches e.Stats.time_ms)
    (by_name (Stats.by_op st))

(* Three served batches, one request each, whose blocks grow and then
   shrink. *)
let render_serve buf program ~options =
  let graph = Lazy.force graph in
  let config = { Serve.default_config with Serve.fanout = 4; hops = 2; options = Some options } in
  let server = Serve.create ~config ~graph program in
  List.iteri
    (fun id seeds ->
      ignore (Serve.serve server [| { Workload.id; arrival_ms = 0.0; seeds } |]);
      render_stats buf (Serve.engine server))
    [ [| 3 |]; Array.init 12 (fun i -> i * 5); [| 7; 8 |] ]

(* Two mini-batch steps on one trainer. *)
let render_minibatch buf program ~options =
  let graph = Lazy.force graph in
  let compiled = Compiler.compile ~options:{ options with Compiler.training = true } program in
  let features = Hector_tensor.Tensor.randn (Hector_tensor.Rng.create 11) [| graph.G.num_nodes; 8 |] in
  let labels = Array.init graph.G.num_nodes (fun v -> v mod 4) in
  let trainer = Minibatch.create ~seed:3 ~graph ~features ~labels compiled in
  List.iter
    (fun batch ->
      ignore (Minibatch.step trainer ~lr:0.1 ~fanout:4 ~hops:2 ~batch ());
      render_stats buf (Minibatch.engine trainer))
    [ Array.init 8 (fun i -> i); Array.init 20 (fun i -> 20 + i) ]

let block_line model (layout, compact, fusion) (path, render) =
  let key = Printf.sprintf "%s/%s/%s" model layout path in
  let buf = Buffer.create 4096 in
  match
    render buf
      (Md.by_name model ~in_dim:8 ~out_dim:4 ())
      ~options:(Compiler.options_of_flags ~compact ~fusion ())
  with
  | () -> Printf.sprintf "%s %s" key (Digest.to_hex (Digest.string (Buffer.contents buf)))
  | exception e -> Printf.sprintf "%s failed: %s" key (Printexc.to_string e)

let line render (model, program) (layout, compact, fusion) training fuse_ops =
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
  | c -> (
      let buf = Buffer.create 4096 in
      match render buf c with
      | () -> Printf.sprintf "%s %s" key (Digest.to_hex (Digest.string (Buffer.contents buf)))
      | exception e -> Printf.sprintf "%s failed: %s" key (Printexc.to_string e))
  | exception e -> Printf.sprintf "%s rejected: %s" key (Printexc.to_string e)

let () =
  let render, blocks =
    match Array.to_list Sys.argv with
    | [ _ ] -> (render_plans, false)
    | [ _; "--launches" ] -> (render_launches, true)
    | _ ->
        prerr_endline "usage: plan_golden.exe [--launches]";
        exit 2
  in
  List.iter
    (fun m ->
      List.iter
        (fun l ->
          List.iter
            (fun training ->
              List.iter (fun fuse -> print_endline (line render m l training fuse)) [ true; false ])
            [ false; true ])
        layouts)
    models;
  if blocks then
    List.iter
      (fun model ->
        List.iter
          (fun l ->
            List.iter
              (fun path -> print_endline (block_line model l path))
              [ ("serve", render_serve); ("minibatch", render_minibatch) ])
          [ ("U", false, false); ("C+F", true, true) ])
      [ "rgcn"; "rgat"; "hgt" ]
