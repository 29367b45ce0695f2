(* Training digest: the bits of 36 short training runs and 18 short
   mini-batch runs, for comparing two builds of the code.

     dune exec test/digest/train_digest.exe -- [--domains N] > parent.digest
     dune exec test/digest/train_digest.exe -- [--domains N] --against parent.digest

   Each run trains one of {aifb, am, fb15k} x {rgcn, rgat, hgt} x
   {U, C, F, C+F} for three SGD steps from a fixed seed, then records its
   three losses, every weight, the forward output after training and the
   simulated milliseconds, every float as a hex literal (["%h"], exact).
   Each mini-batch run ([minibatch/...]: the three datasets x three
   models x {U, C+F}) takes three {!Hector_runtime.Minibatch} steps over
   sampled blocks and records the losses, every weight and each step's
   simulated milliseconds.
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
module Minibatch = Hector_runtime.Minibatch

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

let minibatch_one graph ~dataset ~model (layout, compact, fusion) =
  let compiled =
    Compiler.compile
      ~options:(Compiler.options_of_flags ~training:true ~compact ~fusion ())
      (Hector_models.Model_defs.by_name model ~in_dim:16 ~out_dim:4 ())
  in
  let n = graph.Hector_graph.Hetgraph.num_nodes in
  let features = T.randn (Hector_tensor.Rng.create 12) [| n; 16 |] in
  let labels = Array.init n (fun v -> v mod 4) in
  let t = Minibatch.create ~seed:11 ~graph ~features ~labels compiled in
  let reports =
    Array.init steps (fun k ->
        Minibatch.step t ~batch:(Array.init 32 (fun i -> ((k * 97) + (i * 13)) mod n)) ())
  in
  {
    Digest_file.key = Printf.sprintf "minibatch/%s/%s/%s" dataset model layout;
    fields =
      (("loss", Array.map (fun r -> r.Minibatch.loss) reports)
      :: List.map (fun (n, w) -> ("weight " ^ n, T.to_flat_array w)) (Minibatch.weights t))
      @ [ ("sim_ms", Array.map (fun r -> r.Minibatch.transfer_ms +. r.Minibatch.compute_ms) reports) ];
  }

let runs () =
  List.concat_map
    (fun dataset ->
      let graph = Ds.load (Ds.find dataset) in
      List.concat_map
        (fun model -> List.map (run_one graph ~dataset ~model) layouts)
        models
      @ List.concat_map
          (fun model ->
            List.map (minibatch_one graph ~dataset ~model)
              (List.filter (fun (l, _, _) -> l = "U" || l = "C+F") layouts))
          models)
    datasets

let () = Digest_file.main ~usage:"train_digest [--domains N] [--against FILE]" runs
