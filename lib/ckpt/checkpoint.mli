(** Versioned, CRC-checked training/serving snapshots.

    A checkpoint captures everything a run needs to continue as if it had
    never stopped: the model's parameter stacks (bitwise-exact — elements
    are serialized as their IEEE-754 float64 bits), the trainer step, the
    session RNG cursor ({!Hector_runtime.Session.rng_state}), and the
    streaming epoch / graph version for serve-side state.  The on-disk
    format is a single-line JSON header followed by a little-endian binary
    payload the header indexes; the header carries the payload's CRC-32,
    so truncation and bit-rot surface as {!Corrupt} at load time instead
    of as silently wrong weights.

    Writes are atomic (temp + rename via
    {!Hector_json.write_atomic}): a crash mid-save never
    leaves a half-written file under a checkpoint name.  Files are named
    [ckpt-<step>.hck]; {!save} applies a keep-newest retention policy and
    {!latest}/{!list} recover the resume point by parsed step. *)

module Tensor = Hector_tensor.Tensor

exception Corrupt of string
(** A file that is not a loadable checkpoint: missing/garbled header,
    truncated payload, CRC mismatch, unsupported version, bad tensor
    index. *)

type t

val create :
  ?model:string ->
  ?step:int ->
  ?rng:int64 ->
  ?epoch:int ->
  ?graph_version:int ->
  ?meta:(string * string) list ->
  (string * Tensor.t) list ->
  t
(** [create ~model ~step ~rng ~epoch ~graph_version ~meta tensors] — the
    tensors are snapshotted at encode time (pass live references freely).
    [meta] is free-form string pairs for caller bookkeeping. *)

val model : t -> string
val step : t -> int
val rng : t -> int64 option
val epoch : t -> int
val graph_version : t -> int
val meta : t -> (string * string) list
val tensors : t -> (string * Tensor.t) list
val tensor : t -> string -> Tensor.t option

val encode : t -> string
(** The full file image (header + ['\n'] + payload). *)

val decode : string -> t
(** Inverse of {!encode}; raises {!Corrupt}. *)

val crc32 : string -> int
(** IEEE CRC-32 (polynomial [0xEDB88320]) as an unsigned value — the
    checksum the header stores over the payload. *)

val filename : int -> string
(** [ckpt-<step>.hck] (step zero-padded to 8 digits). *)

val save : ?dir:string -> ?keep:int -> t -> string
(** Atomically write the checkpoint into [dir] (default: the
    [HECTOR_CKPT_DIR] knob; raises [Invalid_argument] when neither is
    given), creating the directory if needed, and return the path.  When
    [keep] (default: the [HECTOR_CKPT_KEEP] knob; unset = keep all) is
    given, the oldest checkpoints beyond the newest [keep] are deleted. *)

val load : string -> t
(** Read and verify one checkpoint file.  Raises {!Corrupt}. *)

val list : ?dir:string -> unit -> (int * string) list
(** Checkpoints in [dir] as [(step, path)], oldest first.  An absent
    directory is an empty list. *)

val latest : ?dir:string -> unit -> string option
(** Path of the highest-step checkpoint, if any. *)
