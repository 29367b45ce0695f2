(** Plan-lifetime memory planner.

    A compiled plan's temp buffers are live only between the first and last
    step that touches them.  This pass computes those live ranges and
    colors buffers with disjoint ranges onto shared {e storage slots} — a
    greedy interval-graph coloring with a best-fit preference for slots of
    the same row space and feature dimension, so slot capacities (which
    depend on the concrete graph and are therefore resolved at runtime)
    stay tight.

    The runtime backs each slot with a single arena allocation reused
    across [run_plan] calls, so steady-state training performs no per-step
    plan-buffer allocation.  Non-temp buffers (outputs, variables kept for
    the backward pass) and buffers no step touches always get a dedicated
    slot.

    The pass also proves, conservatively, which buffers are {e fully
    defined} by their first-touching step before any read — those can be
    backed by uninitialized storage ({!Hector_tensor.Tensor.create_uninit})
    with no zero fill. *)

val analyze : buffers:Plan.buffer list -> steps:Plan.step list -> Plan.memory
(** Liveness + coloring + full-definition analysis for every buffer of
    [buffers], in order, over the step list [steps].  Guarantees: two
    placements share a slot only when both buffers are temp and their
    live ranges are strictly disjoint; [uninit_ok] implies the buffer is
    not zero-init and its first-touching step overwrites every row before
    reading any. *)
