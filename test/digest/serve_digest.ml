(* Serving digest: the bits of 108 short serving runs, for comparing two
   builds of the code.

     dune exec test/digest/serve_digest.exe -- [--domains N] > parent.digest
     dune exec test/digest/serve_digest.exe -- [--domains N] --against parent.digest

   Each run serves one fixed open-loop trace (24 requests of 4 seeds,
   batches of up to 4) with one of {aifb, am, fb15k} x {rgcn, rgat, hgt} x
   {U, C, F, C+F} x {1, 2, 3} hops, fanout 8, and records every request's
   output rows and the simulated milliseconds of the episode, every float
   as a hex literal.  The output format and [--against] are
   [train_digest]'s: per run, the number of values whose bits differ and
   the largest relative difference; exit 1 on a missing run or a
   different shape, else 3 when any value's bits differ, else 0.

   Each trace is then served a second time on the same replica, whose
   projected feature rows are now warm ({!Hector_runtime.Row_reuse}); a
   warm-pass output bit that differs from the cold pass is reported on
   stderr and makes the tool exit 3 as well. *)

module T = Hector_tensor.Tensor
module Ds = Hector_graph.Datasets
module Compiler = Hector_core.Compiler
module Engine = Hector_gpu.Engine
module Serve = Hector_serve.Serve
module Workload = Hector_serve.Workload

let datasets = [ "aifb"; "am"; "fb15k" ]
let models = [ "rgcn"; "rgat"; "hgt" ]
let layouts = [ ("U", false, false); ("C", true, false); ("F", false, true); ("C+F", true, true) ]
let hops = [ 1; 2; 3 ]

let warm_differs = ref 0

let output_bits (r : Serve.response) =
  match r.Serve.output with
  | Some o -> Array.map Int64.bits_of_float (T.to_flat_array o)
  | None -> [||]

let run_one graph requests ~dataset ~model (layout, compact, fusion) hops =
  let config =
    {
      Serve.default_config with
      Serve.model;
      hops;
      max_batch = Some 4;
      options = Some (Compiler.options_of_flags ~compact ~fusion ());
      seed = 11;
    }
  in
  let server =
    Serve.create ~config ~graph (Hector_models.Model_defs.by_name model ~in_dim:16 ~out_dim:4 ())
  in
  let responses = Serve.serve server requests in
  let sim_ms = Engine.elapsed_ms (Serve.engine server) in
  let key = Printf.sprintf "%s/%s/%s/h%d" dataset model layout hops in
  Array.iteri
    (fun i (warm : Serve.response) ->
      if output_bits warm <> output_bits responses.(i) then begin
        incr warm_differs;
        Printf.eprintf "%s: request_%d differs on the warm pass\n" key i
      end)
    (Serve.serve server requests);
  {
    Digest_file.key;
    fields =
      Array.to_list
        (Array.mapi
           (fun i (r : Serve.response) ->
             ( Printf.sprintf "request_%d" i,
               match r.Serve.output with Some o -> T.to_flat_array o | None -> [||] ))
           responses)
      @ [ ("sim_ms", [| sim_ms |]) ];
  }

let runs () =
  List.concat_map
    (fun dataset ->
      let graph = Ds.load (Ds.find dataset) in
      let requests =
        Workload.generate
          ~spec:{ Workload.seed = 5; rate_rps = 2000.0; requests = 24; seeds_per_request = 4 }
          ~num_nodes:graph.Hector_graph.Hetgraph.num_nodes ()
      in
      List.concat_map
        (fun model ->
          List.concat_map
            (fun layout -> List.map (run_one graph requests ~dataset ~model layout) hops)
            layouts)
        models)
    datasets

let () =
  Digest_file.main ~usage:"serve_digest [--domains N] [--against FILE]" runs;
  if !warm_differs > 0 then begin
    Printf.eprintf "%d warm-pass outputs differ from the cold pass\n" !warm_differs;
    exit 3
  end
