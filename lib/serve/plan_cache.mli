(** Compiled-plan cache for serving.

    Serving must not compile on the hot path: plans are cached per
    {e (model name, graph name, compiler options)}.  A replica looks its
    plan up once, at {!Serve.create}, and holds it for its whole life:
    requests never consult the cache, and {!Serve.rewarm} reuses the held
    plan, so a replica's misses stay at one.  Hit/miss counts are exposed
    directly and as [serve.plan_cache.hits]/[.misses] counters on the
    observability handle, so tests can assert the steady state does zero
    compiles. *)

type t

val create : ?obs:Hector_obs.t -> unit -> t
(** Empty cache.  [obs] (default disabled) receives hit/miss counters and
    the compile-pass spans of cache-miss compilations. *)

val get :
  t ->
  model:string ->
  graph:string ->
  options:Hector_core.Compiler.options ->
  Hector_core.Inter_ir.program ->
  Hector_core.Compiler.compiled
(** Look up (or compile and insert) the plan for [(model, graph,
    options)].  The graph name is part of the key because autotuned
    options differ per graph; the program itself is trusted to match
    [model]. *)

val tuned_options :
  Hector_runtime.Tuning_db.t ->
  graph:Hector_graph.Hetgraph.t ->
  Hector_core.Inter_ir.program ->
  Hector_core.Compiler.options
(** The admission-path ladder: resolve inference options for a
    model/graph pair on the RTX 3090 from the tuning database — exact
    signature hit, then nearest same-shaped signature, then the fixed
    {!Hector_core.Compiler.default_options}.  It never searches: the
    database is filled off the request path ([hector autotune --db]). *)

val hits : t -> int

val misses : t -> int
(** Compilations performed (every miss compiles). *)
