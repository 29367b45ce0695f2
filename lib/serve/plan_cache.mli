(** A shim for the end-to-end bench harness ([bench/e2e], frozen with
    [BENCHMARK.json]), which reads a replica's compiles as
    [Plan_cache.misses (Serve.plan_cache s)].  There is no plan cache:
    a replica compiles its plan once, at {!Serve.create}, and holds it. *)

type t = int
(** A replica's compile count ({!Serve.compiles}) when
    {!Serve.plan_cache} read it. *)

val misses : t -> int
(** The compile count itself. *)
