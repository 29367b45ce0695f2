(** Simulated device-memory allocator.

    Tracks current and peak usage against the device capacity and raises
    {!Out_of_memory} when exceeded — this is what makes the paper's OOM
    columns reproducible (e.g. weight-replicating baselines and vanilla
    RGAT materialization on mag/wikikg2).  Graph-proportional allocations
    are accounted at logical (paper) scale. *)

type t
(** Mutable allocator state. *)

type allocation
(** Handle for freeing. *)

exception Out_of_memory of { requested_gb : float; used_gb : float; capacity_gb : float }
(** Raised by {!alloc} when the allocation would exceed capacity. *)

val create : capacity_bytes:float -> scale:float -> t
(** [create ~capacity_bytes ~scale] makes an empty allocator; [scale]
    multiplies graph-proportional allocation sizes. *)

val alloc : t -> ?graph_proportional:bool -> label:string -> float -> allocation
(** [alloc t ~label bytes] records an allocation (default
    [graph_proportional = true]).  Raises {!Out_of_memory} when the logical
    size does not fit. *)

val free : t -> allocation -> unit
(** Release an allocation.  Freeing twice is a no-op. *)

val used_bytes : t -> float
(** Currently allocated logical bytes. *)

val peak_bytes : t -> float
(** High-water mark of logical usage. *)

val alloc_count : t -> int
(** Total number of {!alloc} calls since creation — the statistic behind
    the "steady-state training allocates nothing" check: once the plan
    arenas exist, further [run_plan] calls must not move this counter. *)
