(* A shim kept only because the end-to-end bench harness (bench/e2e,
   frozen with BENCHMARK.json) reads a replica's compiles as
   [Plan_cache.misses (Serve.plan_cache s)]; every other caller reads
   {!Serve.compiles}. *)

type t = int

let misses t = t
