(** Deterministic open-loop serving workloads.

    A workload is a trace of inference requests with Poisson
    (exponential-gap) arrival times drawn from the repository's xorshift
    {!Hector_tensor.Rng} — no wall-clock dependence anywhere, so the same
    spec always produces the same trace and serving results are
    reproducible bit-for-bit.  "Open loop" means arrival times ignore the
    server: load does not slow down when the server falls behind, which is
    what exercises queueing and shedding. *)

type request = {
  id : int;  (** position in the trace *)
  arrival_ms : float;  (** simulated arrival time, strictly increasing *)
  seeds : int array;  (** distinct parent node ids whose outputs are wanted *)
}

type spec = {
  seed : int;  (** RNG seed for gaps and seed-node draws *)
  rate_rps : float;  (** mean arrival rate, requests per simulated second *)
  requests : int;  (** trace length *)
  seeds_per_request : int;  (** seed nodes per request *)
}

val default_spec : spec
(** seed 42, 200 req/s, 64 requests, 4 seeds each. *)

val generate : ?spec:spec -> num_nodes:int -> unit -> request array
(** Generate a trace over a graph with [num_nodes] nodes, sorted by
    arrival time.  Raises [Invalid_argument] on a non-positive or NaN rate, a
    negative request count, or [seeds_per_request] outside
    [\[1, num_nodes\]]. *)
