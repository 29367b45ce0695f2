(** Naive reference implementations of the three models.

    Direct, obviously-correct OCaml translations of the formulas in §2.1
    and Figure 2, used as test oracles for every compiled configuration
    (U/C/F/C+F, training and inference).  Weights are the same typed stacks
    the runtime uses ([\[|T; k; n|\]] matrices, [\[|T; d|\]] vectors). *)

module Tensor = Hector_tensor.Tensor
module Hetgraph = Hector_graph.Hetgraph

val rgcn_two_layer :
  graph:Hetgraph.t ->
  h:Tensor.t ->
  norm:Tensor.t ->
  w1:Tensor.t ->
  w01:Tensor.t ->
  w2:Tensor.t ->
  w02:Tensor.t ->
  Tensor.t
(** Two stacked layers (ReLU between, linear output) — oracle for
    {!Model_defs.rgcn_two_layer}. *)

val rgat_multihead :
  graph:Hetgraph.t -> h:Tensor.t -> heads:(Tensor.t * Tensor.t) list -> Tensor.t
(** Multi-head RGAT: one (W, att) pair per head, outputs concatenated —
    oracle for {!Model_defs.rgat_multihead}. *)

val hgt_multihead :
  graph:Hetgraph.t ->
  h:Tensor.t ->
  heads:(Tensor.t * Tensor.t * Tensor.t * Tensor.t * Tensor.t) list ->
  Tensor.t
(** Multi-head HGT: one (K, Q, V, Wa, Wm) tuple per head, outputs
    concatenated then ReLU — oracle for {!Model_defs.hgt_multihead}. *)

val by_name :
  string -> graph:Hetgraph.t -> inputs:(string * Tensor.t) list -> weights:(string * Tensor.t) list -> Tensor.t
(** Dispatch on the model name with the standard input/weight naming used
    by {!Model_defs} ("h", "norm", "W", "W0", "att", "K", "Q", "V", "Wa",
    "Wm").  Raises [Invalid_argument] on unknown names or missing
    tensors. *)
