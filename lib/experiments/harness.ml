module G = Hector_graph.Hetgraph
module Datasets = Hector_graph.Datasets
module Rng = Hector_tensor.Rng
module Engine = Hector_gpu.Engine
module Memory = Hector_gpu.Memory
module Stats = Hector_gpu.Stats
module Kernel = Hector_gpu.Kernel
module Compiler = Hector_core.Compiler
module Session = Hector_runtime.Session
module Baselines = Hector_baselines.Baselines

type config = { compact : bool; fusion : bool }

let all_configs =
  [
    { compact = false; fusion = false };
    { compact = true; fusion = false };
    { compact = false; fusion = true };
    { compact = true; fusion = true };
  ]

let config_label = function
  | { compact = false; fusion = false } -> "U"
  | { compact = true; fusion = false } -> "C"
  | { compact = false; fusion = true } -> "F"
  | { compact = true; fusion = true } -> "C+F"

type measurement =
  | Ok of {
      time_ms : float;
      peak_gb : float;
      breakdown : (Kernel.category * Stats.entry) list;
    }
  | Out_of_memory

type t = {
  max_nodes : int;
  max_edges : int;
  seed : int;
  graphs : (string, G.t) Hashtbl.t;
  hector_cache : (string, measurement) Hashtbl.t;
  baseline_cache : (string, Baselines.outcome) Hashtbl.t;
}

let create ?(max_nodes = 2000) ?(max_edges = 6000) ?(seed = 7) () =
  {
    max_nodes;
    max_edges;
    seed;
    graphs = Hashtbl.create 8;
    hector_cache = Hashtbl.create 64;
    baseline_cache = Hashtbl.create 64;
  }

let dataset t name =
  match Hashtbl.find_opt t.graphs name with
  | Some g -> g
  | None ->
      let g =
        Datasets.load ~max_nodes:t.max_nodes ~max_edges:t.max_edges ~seed:t.seed
          (Datasets.find name)
      in
      Hashtbl.replace t.graphs name g;
      g

let dataset_graph = dataset

let models = [ "rgcn"; "rgat"; "hgt" ]

let measure_hector t ~model ~dataset:ds ~training config =
  let graph = dataset_graph t ds in
  let options =
    Compiler.options_of_flags ~training ~compact:config.compact ~fusion:config.fusion ()
  in
  let program = Hector_models.Model_defs.by_name model () in
  try
    let compiled = Compiler.compile ~options program in
    let session =
      Session.create ~config:{ Session.Config.default with seed = t.seed } ~graph compiled
    in
    let rng = Rng.create (t.seed + 13) in
    let labels =
      lazy (Array.init graph.G.num_nodes (fun _ -> Rng.int rng (Session.output_dim session)))
    in
    let epoch () =
      if training then ignore (Session.train_step session ~labels:(Lazy.force labels) ())
      else ignore (Session.forward session)
    in
    (* warm-up epoch pays allocations; steady state is measured *)
    epoch ();
    let peak_gb = Memory.peak_bytes (Engine.memory (Session.engine session)) /. 1e9 in
    Session.reset_clock session;
    epoch ();
    let engine = Session.engine session in
    Ok
      {
        time_ms = Engine.elapsed_ms engine;
        peak_gb;
        breakdown = Stats.by_category (Engine.stats engine);
      }
  with Memory.Out_of_memory _ -> Out_of_memory

let hector t ~model ~dataset ~training config =
  let key =
    Printf.sprintf "%s/%s/%b/%s" model dataset training (config_label config)
  in
  match Hashtbl.find_opt t.hector_cache key with
  | Some m -> m
  | None ->
      let m = measure_hector t ~model ~dataset ~training config in
      Hashtbl.replace t.hector_cache key m;
      m

let time_of = function Ok { time_ms; _ } -> Some time_ms | Out_of_memory -> None

let hector_best t ~model ~dataset ~training =
  List.fold_left
    (fun acc config ->
      match (acc, hector t ~model ~dataset ~training config) with
      | Ok { time_ms = best; _ }, Ok { time_ms; _ } when best <= time_ms -> acc
      | _, (Ok _ as better) -> better
      | acc, Out_of_memory -> acc)
    Out_of_memory all_configs

let baseline t system ~model ~dataset ~training =
  let key =
    Printf.sprintf "%s/%s/%s/%b" (Baselines.system_name system) model dataset training
  in
  match Hashtbl.find_opt t.baseline_cache key with
  | Some o -> o
  | None ->
      let graph = dataset_graph t dataset in
      let o = Baselines.run system ~model ~training ~graph in
      Hashtbl.replace t.baseline_cache key o;
      o

let best_baseline t ~model ~dataset ~training =
  List.fold_left
    (fun acc system ->
      match baseline t system ~model ~dataset ~training with
      | Baselines.Time { ms; _ } -> (
          match acc with
          | Some (_, best) when best <= ms -> acc
          | _ -> Some (Baselines.system_name system, ms))
      | Baselines.Oom | Baselines.Unsupported _ -> acc)
    None Baselines.all_systems

let geomean values =
  match values with
  | [] -> nan
  | vs -> Stdlib.exp (List.fold_left (fun acc v -> acc +. Stdlib.log v) 0.0 vs /. float_of_int (List.length vs))
