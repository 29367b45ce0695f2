(** Lowering from inter-operator IR to template instances (paper §3.4.3).

    The pass scans the (canonicalized) program three times, attempting in
    turn the operator classes by descending precedence:

    + {b GEMM-template instances} — typed linear statements and their
      backward forms are matched structurally and specialized with the
      access schemes dictated by the layout and variable spaces
      (gather-by-endpoint, scatter-to-compact, transpose, fused per-row
      scalar);
    + {b traversal-template instances} — maximal contiguous runs of the
      remaining statements inside each loop fuse into single traversal
      kernels; variables produced and consumed entirely inside one fused
      instance become register-allocated locals and lose their global
      buffer;
    + {b PyTorch fallback} — statements containing {!Inter_ir.Opaque}
      operators the templates cannot express.

    The emitted plan lists buffers for every surviving variable with its
    row space and width, marking accumulated variables for zero-init. *)

type context = {
  spaces : (Inter_ir.var * Materialization.space) list;
      (** spaces of variables defined outside this program (e.g. forward
          intermediates visible to a backward program) *)
  dims : (Inter_ir.var * int) list;  (** their widths *)
}

val lower :
  ?obs:Hector_obs.t ->
  ?context:context ->
  ?keep:Inter_ir.var list ->
  ?gemm_schedule:Gemm_spec.schedule ->
  ?traversal_schedule:Traversal_spec.schedule ->
  layout:Layout.t ->
  weight_ops:Linear_fusion.weight_op list ->
  Inter_ir.program ->
  Plan.t
(** Lower a checked, canonicalized program.  [keep] lists variables that
    must stay materialized even if private to one instance (outputs are
    always kept; backward passes add the forward intermediates they read).
    [weight_ops] become prologue steps.  Schedules default to the template
    defaults.  [obs] receives nested ["materialization"] and
    ["buffer_plan"] pass spans.  Raises [Invalid_argument] if the program
    does not check. *)
