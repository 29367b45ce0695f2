(** Runtime configuration knobs — the single place [HECTOR_*] environment
    variables are parsed.

    Every tunable the environment can set is read here exactly once (at
    first use) and exposed as a typed snapshot; no other module in the
    repository calls [Sys.getenv] for a [HECTOR_*] name.  The recognized
    variables:

    {ul
    {- [HECTOR_DOMAINS] — worker-domain count for parallel CPU kernels
       (positive integer, capped at {!Hector_tensor.Domain_pool.max_domains};
       [1] forces the sequential reference backend);}
    {- [HECTOR_FUSE_OPS] — the compiler's inter-op kernel-fusion pass, on
       unless set to ["0"]/["false"] (off reproduces the pre-fusion plans
       bit-for-bit);}
    {- [HECTOR_OBS] — observability ([1]/[true] enables span + counter
       collection for sessions that don't configure it explicitly; off by
       default);}
    {- [HECTOR_SERVE_BATCH] — default maximum micro-batch size of the
       {!Hector_serve} batch former (positive integer);}
    {- [HECTOR_SERVE_QUEUE] — default admission-queue capacity of the
       serving subsystem (positive integer; arrivals beyond it are
       shed);}
    {- [HECTOR_DIST_PARTS] — default partition/replica count of the
       distributed execution subsystem (positive integer);}
    {- [HECTOR_DIST_LATENCY_US] — simulated interconnect per-message
       latency in microseconds (positive float);}
    {- [HECTOR_DIST_BW_GBS] — simulated interconnect bandwidth in GB/s
       (positive float);}
    {- [HECTOR_DIST_CHANNELS] — concurrent transfer channels of the
       asynchronous interconnect (positive integer);}
    {- [HECTOR_DIST_BUCKET_KB] — gradient all-reduce bucket size in KiB
       (positive integer);}
    {- [HECTOR_TUNE_DB] — path of the persistent plan-tuning database
       (JSON; see {!Tuning_db}): serving consults it at admission and the
       autotuner records search winners into it;}
    {- [HECTOR_STREAM_SLACK] — capacity headroom fraction of the streaming
       subsystem's mutable graphs (non-negative float; each node/edge type
       gets [(1+slack)·live] device capacity, so in-slack deltas re-warm
       nothing);}
    {- [HECTOR_STREAM_COMPACT] — tombstone fraction (in [(0, 1]]) beyond
       which a mutable graph's per-type segment is compacted;}
    {- [HECTOR_CKPT_DIR] — default checkpoint directory of the
       fault-tolerance subsystem (see [Hector_ckpt.Checkpoint]);}
    {- [HECTOR_CKPT_KEEP] — checkpoint retention: keep only the newest N
       snapshots in the directory (positive integer; unset keeps all);}
    {- [HECTOR_FAULT_SEED] — deterministic fault-injection seed (any
       integer; see [Hector_ckpt.Fault]);}
    {- [HECTOR_FAULT_RATE] — per-site fault probability in [[0, 1]]
       ([0]/unset disables injection).}}

    {b Validation.}  A {e set but malformed} value (e.g.
    [HECTOR_STREAM_SLACK=abc], a negative [HECTOR_DOMAINS]) raises
    [Invalid_argument] naming the variable, the offending value and the
    accepted form — a configuration error is surfaced loudly rather than
    silently replaced by a default the operator did not ask for.  A set but
    {e blank} value reads as unset ([VAR= ./prog] shell idiom).

    At module initialization this registers the [HECTOR_DOMAINS] parser as
    {!Hector_tensor.Domain_pool.set_default_sizing}'s hook, so pool sizing
    flows through the same snapshot, and the [HECTOR_FUSE_OPS] parser as
    {!Hector_core.Compiler.set_fuse_ops_default}'s hook, so compilations
    that leave [options.fuse_ops] unset follow the knob. *)

type t = {
  domains : int option;  (** [HECTOR_DOMAINS]; [None] = unset *)
  obs : bool;  (** [HECTOR_OBS], default [false] *)
  fuse_ops : bool;  (** [HECTOR_FUSE_OPS], default [true] *)
  serve_batch : int option;
      (** [HECTOR_SERVE_BATCH]; [None] = unset (serving falls back to its
          built-in default) *)
  serve_queue : int option;  (** [HECTOR_SERVE_QUEUE] *)
  dist_parts : int option;
      (** [HECTOR_DIST_PARTS]; [None] = unset (the distributed runtime
          falls back to its built-in default) *)
  dist_latency_us : float option;  (** [HECTOR_DIST_LATENCY_US] *)
  dist_bandwidth_gbs : float option;  (** [HECTOR_DIST_BW_GBS] *)
  dist_channels : int option;  (** [HECTOR_DIST_CHANNELS] *)
  dist_bucket_kb : int option;  (** [HECTOR_DIST_BUCKET_KB] *)
  tune_db : string option;
      (** [HECTOR_TUNE_DB]; [None] = unset/blank (no tuning database) *)
  stream_slack : float option;
      (** [HECTOR_STREAM_SLACK] (finite, [>= 0]); [None] = unset (the
          streaming subsystem falls back to its built-in default
          headroom) *)
  stream_compact : float option;  (** [HECTOR_STREAM_COMPACT] (in [(0, 1]]) *)
  ckpt_dir : string option;
      (** [HECTOR_CKPT_DIR]; [None] = unset/blank (no default checkpoint
          directory — explicit [~dir] arguments still work) *)
  ckpt_keep : int option;
      (** [HECTOR_CKPT_KEEP] (positive); [None] = keep every snapshot *)
  fault_seed : int option;  (** [HECTOR_FAULT_SEED] (any integer) *)
  fault_rate : float option;
      (** [HECTOR_FAULT_RATE] (in [[0, 1]]); [None]/[0] = injection off *)
}

val parse : (string -> string option) -> t
(** Parse a snapshot from an environment lookup function (pure; exposed for
    tests — pass [Sys.getenv_opt] to read the real environment).  Raises
    [Invalid_argument] with the variable name and expected form on any
    malformed value. *)

val current : unit -> t
(** The process's knob snapshot, read from the environment on first call
    and cached. *)

val refresh : unit -> t
(** Re-read the environment and replace the cached snapshot (tests mutate
    the environment with [Unix.putenv] and call this to make the change
    visible). *)

val defaults : t
(** The snapshot an empty environment produces. *)
