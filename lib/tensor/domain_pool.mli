(** Persistent domain pool for the multicore execution backend.

    All parallel CPU kernels in the repository — tensor primitives,
    traversal loops, reference models — funnel through this module.  It
    maintains a process-wide pool of worker domains (OCaml 5 [Domain]s)
    that sleep between jobs, so a [parallel_for] costs a broadcast and a
    few atomic fetch-adds rather than a domain spawn.

    The pool size comes from, in priority order: an explicit
    {!set_num_domains} override, the [HECTOR_DOMAINS] environment variable
    (read once, at the first sizing decision, through {!parse_domains}),
    and [Domain.recommended_domain_count ()].  [HECTOR_DOMAINS] is the only
    environment variable the repository reads: it sizes the hardware, and
    has no other entry point.  A size of [1] disables the
    pool entirely: every entry point degrades to the exact sequential loop
    (same iteration order, same floating-point result, no pool machinery
    touched), so [HECTOR_DOMAINS=1] is the reference backend.

    Work is split into contiguous index chunks no smaller than a caller
    supplied {e grain}, claimed dynamically by the caller and the workers.
    Loops whose total size is at most one grain never touch the pool, so
    tiny tensors never pay fork/join overhead.  Nested calls (a parallel
    kernel invoked from inside a chunk body) run sequentially rather than
    re-entering the pool. *)

val num_domains : unit -> int
(** Effective domain count for the next parallel region (override, then
    [HECTOR_DOMAINS], then [Domain.recommended_domain_count ()]); always
    at least 1, capped at {!max_domains}.  Raises [Invalid_argument] (see
    {!parse_domains}) when [HECTOR_DOMAINS] is malformed. *)

val max_domains : int
(** Hard upper bound on the pool size (guards absurd [HECTOR_DOMAINS]). *)

val set_num_domains : int option -> unit
(** [set_num_domains (Some n)] forces the pool size (used by tests and
    benchmarks to compare backends in-process); [set_num_domains None]
    returns to the [HECTOR_DOMAINS]/default sizing.  Resizing tears the old
    pool down lazily before the next parallel region. *)

val parse_domains : string option -> int option
(** [parse_domains v] reads a [HECTOR_DOMAINS] value (pure; [v] is what
    [Sys.getenv_opt] returned).  Unset or blank is [None]; a positive
    integer is [Some n], capped at {!max_domains}.  Anything else raises
    [Invalid_argument] naming the variable, the value and the accepted
    form. *)

val sequential : unit -> bool
(** [true] iff {!num_domains}[ () = 1] — callers use this to select their
    verbatim sequential code path. *)

val parallel_for : ?grain:int -> int -> (int -> int -> unit) -> unit
(** [parallel_for ~grain n body] executes [body lo hi] over disjoint
    chunks covering [\[0, n)], in parallel.  Each chunk spans at least
    [grain] (default 1024) indices except possibly the last; when [n <=
    grain] or the pool size is 1, this is exactly [body 0 n] on the
    calling domain.  [body] must only write state owned by its index range,
    so no result depends on the pool size: the pool offers no reduction,
    and every float sum in the repository runs in one fixed order.
    Exceptions raised by a chunk are re-raised in the caller (first one
    wins). *)
