(** Instances of the GEMM template (paper §3.3.1, Algorithm 1).

    A GEMM instance is a specialization of the tiled-matmul template: the
    task says {e which} rows are multiplied by {e which} typed weight and
    where results land (the access schemes — gather lists, scatter lists,
    transposes, per-row scalars — of [LoadAToShmemIfInRange] /
    [StoreCIfInRange]); the schedule carries the operator-specific knobs of
    §3.3.3 (tile width, coarsening factor, [__launch_bounds__]).

    Tasks cover the typed linear layers of RGNN forward passes and the
    transposed/segment-reduced forms their backward passes need. *)

(** A node-space operand: a declared input feature or produced node data. *)
type operand = Op_feature of string | Op_data of string

val operand_name : operand -> string
(** The underlying tensor name. *)

type side = [ `Src | `Dst ]
(** Which endpoint of each edge supplies (or receives) rows. *)

type task =
  | Node_linear of {
      input : operand;
      weight : string;
      slice : Inter_ir.wslice;  (** [By_ntype] (segment-MM) or [Shared] (plain GEMM) *)
      output : string;
      transpose : bool;  (** multiply by [Wᵀ] (backward data path) *)
      accumulate : bool;  (** [C += ...] instead of [C = ...] *)
    }
      (** per-node typed linear: [out\[v\] = in\[v\] · W\[τ(v)\]] over
          node-type segments *)
  | Edge_linear of {
      side : side;
      input : operand;  (** node-space tensor, gathered by endpoint id *)
      weight : string;  (** sliced by edge type *)
      output : string;
      out_space : Materialization.space;  (** [Rows_edges] or a compact space *)
      transpose : bool;
      per_row_scalar : string option;
          (** edge-space scalar multiplied into each output row on the fly
              (the "per-row scalar applied to A tiles" fusion) *)
    }
      (** per-edge typed linear with gather/scatter access schemes
          (Figure 4): [out\[row e\] = in\[endpoint e\] · W\[etype e\]] *)
  | Edge_linear_dinput of {
      side : side;
      weight : string;
      grad_output : string;
      grad_out_space : Materialization.space;
      grad_input : string;  (** node-space gradient, accumulated atomically *)
      transpose : bool;
    }  (** backward data path: [din\[endpoint e\] += dout\[row e\] · Wᵀ] *)
  | Edge_linear_dweight of {
      side : side;
      input : operand;
      grad_output : string;
      grad_out_space : Materialization.space;
      grad_weight : string;
    }
      (** backward weight path: [dW\[r\] += Σ_{e : r} in\[endpoint e\]ᵀ ·
          dout\[row e\]] — a transposed segment-MM per relation *)
  | Node_linear_dweight of {
      input : operand;
      slice : Inter_ir.wslice;
      grad_output : string;
      grad_weight : string;
    }  (** [dW\[t\] += Σ_{v : t} in\[v\]ᵀ · dout\[v\]] over node segments *)

val accesses : task -> Inter_ir.access list
(** What a task reads and writes, as the IR statement it implements
    would: its operands' reads (an input gathered through the task's
    endpoint, [Src] or [Dst], in an edge task), then its output's write —
    [Accumulated] for an accumulating [Node_linear] and for
    [Edge_linear_dinput]'s scatter, [Weight_grad] for the dweight tasks.
    The one table of GEMM operands the memory planner, inter-op fusion and
    {!Plan} read. *)

type schedule = {
  tile_width : int;  (** 16 or 32 *)
  coarsen : int;  (** 1, 2 or 4 output elements per thread *)
  launch_bounds : bool;  (** cap registers to raise occupancy *)
}

val default_schedule : schedule
(** Tile 16, no coarsening, no launch bounds — the template defaults. *)

val validate_schedule : schedule -> unit
(** Raises [Invalid_argument] on values outside the template's option sets
    ({16,32} × {1,2,4}). *)

type t = { kid : int; task : task; schedule : schedule }

val name : t -> string
(** Kernel identifier, ["gemm_<kid>"]. *)

val uses_gather : t -> bool
(** Does the A-load access scheme need a gather list? *)

val pp : Format.formatter -> t -> unit
(** One-line summary of the instance. *)
