(** The Hector inter-operator level IR (paper §3.2, Listing 1, Table 3).

    Model semantics are expressed as [foreach] loops over edges and nodes
    with statements that read input features, typed weight slices and
    produced data, and write produced data.  Crucially the IR only states
    {e the association of data with nodes or edges} — how a conceptual
    per-edge variable maps to tensor rows (vanilla or compact), and how
    adjacency is encoded, are {!Layout.t} concerns that never appear here.

    A program like the single-headed RGAT attention of Listing 1 reads:
    {[
      for e in g.edges():
        e["zi"] = linear(e.src.feature, W[e.etype])
      for e in g.edges():
        e["attn"] = leakyrelu(inner(att[e.etype], concat(e["zi"], e["zj"])))
      ...
    ]} *)

(** Which runtime entity an access refers to, relative to the enclosing
    loop: the current edge [e], the current node [n], or the endpoints
    [e.src] / [e.dst]. *)
type entity = Cur_edge | Cur_node | Src | Dst

(** How a weight stack is sliced at each iteration (Table 3, "weight
    slicing"). *)
type wslice =
  | By_etype  (** [W\[e.etype\]] *)
  | By_src_ntype  (** [W\[τ(e.src)\]], e.g. HGT's K_τ(s) used edge-wise *)
  | By_dst_ntype  (** [W\[τ(e.dst)\]] *)
  | By_ntype  (** [W\[n.ntype\]] in node loops *)
  | Shared  (** untyped weight, e.g. RGCN's self-loop W₀ *)

type unop =
  | Exp
  | Neg
  | Reciprocal
  | Leaky_relu  (** slope 0.01 — the RGAT σ *)
  | Relu
  | Rsqrt  (** 1/√x, used by attention scaling *)
  | Leaky_relu_grad  (** ∂leakyrelu/∂x evaluated at x (backward programs) *)
  | Relu_grad  (** ∂relu/∂x evaluated at x (backward programs) *)

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Feature of entity * string  (** input data: [n.feature], [e.src.feature], per-edge inputs *)
  | Data of entity * string  (** produced data: [e\["attn"\]], [n\["agg"\]], [e.src\["k"\]] *)
  | Weight of string * wslice  (** a typed weight slice (matrix or vector) *)
  | Linear of expr * expr  (** row-vector × weight-matrix; GEMM-eligible *)
  | Linear_t of expr * expr
      (** row-vector × transposed weight matrix — emitted by backward
          generation ([dx = dy · Wᵀ]); GEMM-eligible with an on-the-fly
          transpose access scheme *)
  | Inner of expr * expr  (** vector inner product; GEMM-ineligible *)
  | Concat of expr * expr  (** feature concatenation [\[s;t\]] *)
  | Slice of expr * int * int
      (** [Slice (e, lo, len)]: contiguous sub-vector — the backward of
          [Concat] *)
  | Binop of binop * expr * expr  (** pointwise; scalars broadcast over vectors *)
  | Unop of unop * expr
  | Opaque of string * expr list
      (** an operator the templates do not understand — triggers the
          PyTorch-fallback path of §3.1.1 *)

(** Loop iterators (Table 3).  [Incoming]/[Outgoing] are only valid nested
    directly inside a [Nodes] loop. *)
type loop_kind =
  | Edges  (** [g.edges()] *)
  | Nodes  (** [g.dst_nodes()] / [g.src_nodes()] — all nodes here *)
  | Incoming  (** [n.incoming_edges()] *)
  | Outgoing  (** [n.outgoing_edges()] *)

type stmt =
  | Assign of entity * string * expr  (** [e\["x"\] = expr] / [n\["x"\] = expr] *)
  | Accumulate of entity * string * expr  (** [... += expr]; to [Dst]/[Src] this is an atomic scatter *)
  | Grad_weight of { name : string; x : expr; dy : expr }
      (** weight-gradient accumulation [dW\[slice\] += x ⊗ dy] (for vector
          weights, [dv += x · dy] with scalar [dy]) — emitted by backward
          generation, lowered to a transposed segment-MM when possible *)
  | For_each of loop_kind * stmt list

(** Declarations of the tensors a program touches. *)
type decl =
  | Weight_mat of { name : string; slice : wslice; rows : int; cols : int }
      (** a stack of [rows × cols] matrices, one per slice value *)
  | Weight_vec of { name : string; slice : wslice; dim : int }
      (** a stack of vectors, e.g. RGAT's per-relation attention vector *)
  | Node_input of { name : string; dim : int }  (** input node features *)
  | Edge_input of { name : string; dim : int }
      (** precomputed per-edge inputs, e.g. RGCN's 1/c_{v,r} norm ([dim = 1]
          reads as a scalar) *)

type program = {
  name : string;
  decls : decl list;
  body : stmt list;  (** a sequence of top-level [For_each] loops *)
  outputs : string list;  (** names of produced {e node} data that are the model outputs *)
}

(** {1 Helpers} *)

val decl_name : decl -> string
(** The declared tensor's name. *)

val find_decl : program -> string -> decl option
(** Look a declaration up by name. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up rewrite: applies the function to each subexpression's
    rebuilt form, leaves first. *)

val iter_expr : (expr -> unit) -> expr -> unit
(** Visit every subexpression. *)

val exists_expr : (expr -> bool) -> expr -> bool
(** Does any subexpression satisfy the predicate? *)

val stmt_exprs : stmt -> expr list
(** The top-level expressions of one (non-loop) statement; loops yield the
    expressions of their bodies. *)

val map_program_exprs : (expr -> expr) -> program -> program
(** Rewrite every expression in every statement. *)

(** Variables produced by the program are identified by their scope and
    name ([`Node] data lives on nodes, [`Edge] data on edges). *)
type var = [ `Node | `Edge ] * string

val scope_of_target : entity -> [ `Node | `Edge ]
(** The scope a write through this entity lands in: [Cur_edge] writes edge
    data, everything else node data. *)

(** {1 Access facts}

    What a statement reads and writes, computed by one walk for every
    pass that asks: nested loops are flattened, each expression's reads
    come in evaluation order (leaves left to right) and repeats are kept,
    and a statement's write follows its reads. *)

type access =
  | Read_input of entity * string  (** a [Feature] leaf: a declared input *)
  | Read_data of entity * string  (** a [Data] leaf: produced data *)
  | Assigned of entity * string  (** the target of [x = e] *)
  | Accumulated of entity * string  (** the target of [x += e] *)
  | Weight_grad of string  (** the weight whose gradient stack a [Grad_weight] accumulates into *)

val access_name : access -> string
(** The name read or written. *)

val leaves : stmt list -> stmt list
(** The non-loop statements of a body, nested loops flattened, in order. *)

val expr_reads : expr -> access list
(** The [Read_input]/[Read_data] facts of one expression. *)

val stmt_accesses : stmt -> access list
(** What one statement reads and writes (a loop: its whole body's). *)

val accesses : stmt list -> access list
(** [stmt_accesses] of each statement, in order. *)

val defs : program -> var list
(** The produced variables ([Assigned] or [Accumulated]), in
    first-write order, without duplicates. *)

val uses : access list -> var -> int
(** Number of [Read_data] facts of a produced variable. *)

val receptive_depth : program -> int option
(** How many in-hops the program's outputs read: [Some k] when each
    output row of node [n] is a function of the in-edges of the nodes
    within [k - 1] in-hops of [n] and of their endpoints' inputs, in
    their relative order.  Inputs and weights have depth 0.  In an edge
    iteration ([Edges], or [Incoming] inside [Nodes]) a [Src] read of a
    node value adds one hop; [Dst], [Cur_edge] and [Cur_node] reads keep
    the value's depth.  A write into [Dst], or an [Incoming] accumulation
    into [Cur_node], has depth at least 1.  [None] for a program with no
    outputs, a write into [Src], an [Outgoing] loop, a [Grad_weight], a
    read of a variable nothing defines, a cycle through [Src] inside one
    loop, and anything else these rules do not cover. *)

val entity_prefix : entity -> string
(** Rendering of an entity reference: ["e"], ["n"], ["e.src"], ["e.dst"]. *)

val pp_expr : Format.formatter -> expr -> unit
(** Renders one expression. *)

val pp_stmt : Format.formatter -> stmt -> unit
(** Renders with indentation, Listing-1 style. *)

val pp_program : Format.formatter -> program -> unit
(** Full listing including declarations. *)

val fingerprint : program -> string
(** Content hash (hex MD5 of the {!pp_program} rendering) identifying the
    model's semantics for the plan-tuning database: two programs share a
    fingerprint iff they print identically — declarations, statements and
    outputs included. *)
