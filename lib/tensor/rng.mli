(** Deterministic pseudo-random number generator.

    A splittable xorshift64* generator used everywhere in the repository so
    that dataset generation, weight initialization and property tests are
    reproducible bit-for-bit across runs.  We deliberately avoid
    [Stdlib.Random] to keep results independent of the OCaml runtime
    version. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Two generators created with the
    same seed produce identical streams.  [seed] may be any integer; it is
    hashed internally so small seeds are fine. *)

val state : t -> int64
(** The generator's current cursor — everything needed to reproduce the
    rest of its stream.  Serialized into checkpoints so a resumed run
    continues the exact sequence an uninterrupted run would have drawn. *)

val of_state : int64 -> t
(** [of_state s] rebuilds the generator {!state} captured; zero (the
    xorshift absorbing state, never produced by a live generator) is
    replaced by a fixed non-zero constant. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give each subsystem its own stream. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val uniform : t -> float
(** [uniform t] draws a uniform float in [\[0, 1)]. *)

val gaussian : t -> float
(** [gaussian t] draws from the standard normal distribution
    (Box-Muller). *)

type zipf_table
(** The cumulative weights of one Zipf distribution, built once and drawn
    from many times. *)

val zipf_table : n:int -> s:float -> zipf_table
(** [zipf_table ~n ~s] tabulates the Zipf distribution over [\[0, n)] with
    exponent [s] (larger [s] = more skew): the exact harmonic prefix sums of
    the weights [1 / k^s], [k = 1..n], accumulated left to right.  O(n)
    time and space.  Raises [Invalid_argument] naming the argument when
    [n <= 0] or [s] is not finite. *)

val zipf_draw : t -> zipf_table -> int
(** [zipf_draw t tbl] draws from [tbl] by inverse CDF: it scales one
    {!uniform} by the total weight and binary-searches the first index
    whose prefix sum reaches it, in O(log n).  It consumes exactly one
    {!uniform}; the index it returns and the generator state it leaves
    equal those of a linear scan over the same prefix sums, so draws
    match those of every earlier version of {!zipf}, which scanned. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] is [zipf_draw t (zipf_table ~n ~s)]: one draw at O(n)
    cost.  Callers that draw repeatedly from one distribution build the
    table once.  Used to give synthetic graphs realistic skewed degree and
    type distributions. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)

val shuffle_pair : t -> int array -> int array -> int -> unit
(** [shuffle_pair t a b n] applies to the first [n] elements of both [a]
    and [b] the permutation that [shuffle] would apply to an [n]-element
    array, consuming exactly the same draws, without allocating — for
    column pairs such as a CSR row's neighbors and edge ids.  Raises
    [Invalid_argument] if either array is shorter than [n]. *)

val choose : t -> 'a array -> 'a
(** [choose t a] picks a uniform element of the non-empty array [a]. *)
