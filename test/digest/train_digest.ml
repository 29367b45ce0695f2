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
    Digest_file.key = Printf.sprintf "%s/%s/%s" dataset model layout;
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

let () = Digest_file.main ~usage:"train_digest [--domains N] [--against FILE]" runs
