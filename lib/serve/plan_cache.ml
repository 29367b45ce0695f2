module Compiler = Hector_core.Compiler
module Ir = Hector_core.Inter_ir
module Device = Hector_gpu.Device
module Tuning_db = Hector_runtime.Tuning_db

type key = { model : string; graph : string; options : Compiler.options }

type t = {
  entries : (key, Compiler.compiled) Hashtbl.t;
  obs : Hector_obs.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(obs = Hector_obs.disabled) () =
  { entries = Hashtbl.create 8; obs; hits = 0; misses = 0 }

let get t ~model ~graph ~options program =
  let key = { model; graph; options } in
  match Hashtbl.find_opt t.entries key with
  | Some compiled ->
      t.hits <- t.hits + 1;
      Hector_obs.add t.obs "serve.plan_cache.hits" 1;
      compiled
  | None ->
      t.misses <- t.misses + 1;
      Hector_obs.add t.obs "serve.plan_cache.misses" 1;
      let compiled = Compiler.compile ~obs:t.obs ~options program in
      Hashtbl.replace t.entries { model; graph; options } compiled;
      compiled

let tuned_options db ~graph program =
  match
    Tuning_db.lookup db ~model:(Ir.fingerprint program) ~device:Device.rtx3090.Device.name
      ~training:false (Tuning_db.signature graph)
  with
  | Some (Tuning_db.Exact e) | Some (Tuning_db.Nearest e) ->
      { e.Tuning_db.options with Compiler.training = false }
  | None -> Compiler.default_options

let hits t = t.hits
let misses t = t.misses
