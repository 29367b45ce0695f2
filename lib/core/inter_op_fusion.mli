(** Inter-operator kernel fusion.

    Post-lowering plan pass: greedily merges adjacent steps that share an
    iteration space — chains of traversal/elementwise ops, and GEMMs with
    their traversal epilogues (scale, bias, ReLU/LeakyReLU, softmax
    normalization) — into {!Plan.step.Fused} groups the runtime launches as
    a single kernel.  Members keep their original execution order inside
    the group, so results are bit-identical to the unfused plan; the win is
    one launch charge (and one memset elision per group-local accumulator)
    instead of one per op.

    Grouping rules (see DESIGN.md, "Inter-op fusion"): same iteration space
    (edge sweeps vs. node maps), at most one GEMM per group, and no
    intra-group read of a value a previous member scatter-accumulated
    (atomics into node rows, compact-row partial sums) nor any scatter into
    a value a previous member read.  Because the pass runs on both the
    forward and the backward plan of a compiled model, the backward mirrors
    the fused forward: the forward group still materializes every
    intermediate the backward reads (autodiff's [keep] set marks those
    buffers non-temp, which fusion never changes).

    Applied by {!Compiler.compile} unless [options.fuse_ops = false];
    with it off, plans are bit-for-bit the pre-fusion pipeline's. *)

val run : ?obs:Hector_obs.t -> Plan.t -> Plan.t
(** Fuse a lowered plan's steps.  Returns the plan unchanged when no group
    forms; otherwise re-runs {!Buffer_plan.analyze} (timed under a
    ["buffer_plan"] span on [obs]) so live ranges reflect the fused step
    indices. *)
