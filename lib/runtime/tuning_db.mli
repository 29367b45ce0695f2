(** Persistent plan-tuning database.

    Stores the winning compiler options of past {!Autotune} searches, keyed
    by {e (model fingerprint, bucketized graph signature, device name,
    training flag)}, as a single JSON file (the path a caller passes:
    [Serve.config.tune_db], [hector serve --db], [hector autotune --db]).
    [hector autotune --db] fills it; serving admission
    ({!Hector_serve.Plan_cache.tuned_options}) reads it through a fixed
    ladder that never searches:

    + {e exact} — an entry whose bucketized signature matches;
    + {e nearest} — the same-shaped entry at smallest log-space signature
      distance;
    + {e none} — the caller falls back to default options.

    Graph signatures are per-type node and edge counts (sorted descending,
    so they are invariant under node-id and type relabeling) plus the mean
    degree; bucketization rounds counts to half-log2 steps so nearby graph
    sizes share a key.  The file format is a versioned JSON object written
    and read through {!Hector_json}; corrupt or missing files load as an
    empty database. *)

type signature = {
  nodes_per_ntype : int array;  (** per node type, sorted descending *)
  edges_per_etype : int array;  (** per edge type, sorted descending *)
  mean_degree : float;  (** edges / nodes of the physical replica *)
}

val signature : Hector_graph.Hetgraph.t -> signature
(** Deterministic, relabel-invariant summary of a graph. *)

type entry = {
  model : string;  (** {!Hector_core.Inter_ir.fingerprint} of the program *)
  model_name : string;  (** display name ("rgat", ...) *)
  device : string;  (** {!Hector_gpu.Device.t} name *)
  training : bool;
  signature : signature;
  options : Hector_core.Compiler.options;  (** the winning configuration *)
  estimated_ms : float;  (** {!Plan_cost} estimate of the winner *)
  measured_ms : float;  (** measured steady-state epoch of the winner *)
}

type t

val create : unit -> t
(** Empty in-memory database. *)

val load : string -> t
(** Read a database file; a missing, corrupt or foreign file yields an
    empty database (tuning then falls back to searching). *)

val save : t -> string -> unit
(** Write the database as JSON through {!Hector_json.write_atomic}: the
    payload lands in a pid-suffixed temporary and reaches the target path
    only by rename, so a crash mid-save can never leave a truncated
    database (and {!load} additionally treats any corrupt file as
    empty). *)

val record :
  t ->
  model:string ->
  model_name:string ->
  device:string ->
  training:bool ->
  signature:signature ->
  options:Hector_core.Compiler.options ->
  estimated_ms:float ->
  measured_ms:float ->
  unit
(** Insert a winner, replacing any entry with the same (model, device,
    training, bucketized-signature) key. *)

type hit =
  | Exact of entry  (** same bucketized signature *)
  | Nearest of entry  (** same type-structure shape, closest in log space *)

val lookup : t -> model:string -> device:string -> training:bool -> signature -> hit option
(** Resolve the ladder for one (model, device, training, graph) query.
    [None] means no same-shaped entry exists for the model/device pair. *)

val size : t -> int
val entries : t -> entry list

val to_json : t -> string
(** The serialized form {!save} writes (exposed for tests). *)

exception Malformed
(** {!Hector_json.Malformed}, raised by {!of_json} on input that is not a
    well-formed database — including the torso a torn (partial) write
    would leave. *)

val of_json : string -> t
(** Parse {!to_json} output; raises {!Malformed} on malformed input
    (unlike {!load}). *)
