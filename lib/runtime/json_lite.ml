(* An alias kept only because the end-to-end bench harness (bench/e2e,
   frozen with BENCHMARK.json) names [Hector_runtime.Json_lite]; every
   other caller uses {!Hector_json} directly. *)

include Hector_json
