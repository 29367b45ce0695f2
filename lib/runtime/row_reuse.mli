(** Projected feature rows kept across the blocks one inference replica
    serves.

    A served block's typed linear steps multiply gathered parent feature
    rows by declared weight slices: [h\[u\] · W\[s\]] for each (slice,
    node) pair the block holds.  A replica's weights never change and its
    features change only through {!Block.update_features}, so each such
    row is computed once per replica instead of once per batch.  A row's
    key is (weight, slice, parent node); rows live in one flat float pool
    per weight, found through an open-addressing int index, so no row
    allocates on its own and a stale row is recomputed into its own slot.

    Validity is per parent node: {!bump} marks the feature rows a graph
    update wrote, {!invalidate} marks every row.  A row computed before
    either is recomputed on its next read.  The table never changes a
    bit: every miss of a step is computed by one
    {!Hector_tensor.Tensor.segment_gather_into} call, whose rows are the
    ones the uncached step would compute, and a hit is a copy of such a
    row for the same operands. *)

module Tensor = Hector_tensor.Tensor

type t

val create : ?obs:Hector_obs.t -> nodes:int -> params:string list -> unit -> t
(** An empty table for a parent graph of [nodes] nodes (the largest
    parent node id plus one any block may carry) whose declared parameter
    weights are [params]; only steps multiplying by one of them are
    served from it.  [obs] (default {!Hector_obs.disabled}) receives the
    [serve.row_hits] and [serve.row_misses] counters, one bump each per
    step. *)

val bump : t -> int array -> unit
(** The feature rows of these parent nodes changed: their projected rows
    are stale. *)

val invalidate : t -> unit
(** Every feature row may have changed: every projected row is stale. *)

type block = {
  table : t;
  feature : string;  (** the block's gathered node input *)
  parent : int array;  (** block node id → parent node id *)
}
(** A table bound to one staged block. *)

val caches : block -> weight:string -> bool
(** Whether steps multiplying by [weight] are served from the table. *)

val project :
  block ->
  weight:string ->
  edge:bool ->
  offsets:int array ->
  idx:int array ->
  rep:int array ->
  Tensor.t ->
  Tensor.t ->
  Tensor.t ->
  unit
(** [project b ~weight ~edge ~offsets ~idx ~rep x w out] overwrites row
    [i] of [out] with [x\[idx.(i)\] · w\[s\]] ([x\[i\]] when [idx] is
    empty), [s] the segment of [offsets] holding [i] — what
    {!Tensor.segment_gather_into} (or {!Tensor.segment_matmul_into} for an
    empty [idx]) computes, bit for bit.  [edge] says the segments are edge
    types rather than node types, so the two slicings of one weight never
    share a key.  A row [i] with [rep.(i) <> i] ([rep] as in
    {!Tensor.segment_gather_into}) takes its representative's row.  Raises
    [Invalid_argument] when [out] is not [offsets.(S) × width]. *)
