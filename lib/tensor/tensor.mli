(** Dense row-major float tensors.

    This is the data substrate of the whole repository: node/edge feature
    matrices, typed weight stacks, gradients and intermediates are all values
    of {!t}.  Tensors are contiguous row-major buffers of [float] with an
    explicit shape; a tensor may be a zero-copy {e view} into a larger buffer
    (see {!slice0}), which is how Hector passes typed-weight slices around
    without replicating them — the design point of §3.7.2 of the paper.

    Unless stated otherwise, operations allocate a fresh result; functions
    with an [_inplace] suffix (or taking [~into]) mutate. *)

type t
(** A dense tensor: shape + underlying buffer (+ offset when a view). *)

exception Shape_error of string
(** Raised when operand shapes are incompatible. *)

(** {1 Construction} *)

val create : int array -> t
(** [create shape] is a zero-filled tensor of the given shape.  Every
    dimension must be non-negative. *)

val create_uninit : int array -> t
(** [create_uninit shape] is a tensor whose contents are {b unspecified}
    until written: the zeroing pass of {!create} is skipped.  Only use it
    when every element is provably overwritten before its first read (e.g.
    a GEMM output with [beta = 0], or a buffer the memory planner proves is
    fully defined by its first-touching step). *)

val zeros : int array -> t
(** Synonym of {!create}. *)

val ones : int array -> t
(** All-ones tensor. *)

val full : int array -> float -> t
(** [full shape v] fills with [v]. *)

val init : int array -> (int array -> float) -> t
(** [init shape f] fills position [idx] with [f idx]. *)

val scalar : float -> t
(** Rank-0 tensor holding one number. *)

val of_array : int array -> float array -> t
(** [of_array shape data] wraps a copy of [data]; [Array.length data] must
    equal the number of elements implied by [shape]. *)

val of_2d : float array array -> t
(** Build a matrix from rows (all rows must have equal length). *)

val randn : Rng.t -> int array -> t
(** Standard-normal entries drawn from the given generator. *)

val glorot : Rng.t -> int array -> t
(** Glorot/Xavier-uniform initialization using the last two dimensions as
    fan-in/fan-out — the usual initialization for GNN weights. *)

(** {1 Inspection} *)

val shape : t -> int array
(** The shape (a fresh copy; safe to mutate). *)

val ndim : t -> int
(** Number of dimensions. *)

val dim : t -> int -> int
(** [dim t i] is the size of dimension [i]. *)

val numel : t -> int
(** Total number of elements. *)

val rows : t -> int
(** First dimension of a matrix.  Raises {!Shape_error} if not 2-D. *)

val cols : t -> int
(** Second dimension of a matrix.  Raises {!Shape_error} if not 2-D. *)

val get : t -> int array -> float
(** Multi-index read (bounds-checked). *)

val set : t -> int array -> float -> unit
(** Multi-index write (bounds-checked). *)

val get1 : t -> int -> float
(** Fast 1-D read. *)

val set1 : t -> int -> float -> unit
(** Fast 1-D write. *)

val get2 : t -> int -> int -> float
(** Fast 2-D read. *)

val set2 : t -> int -> int -> float -> unit
(** Fast 2-D write. *)

val item : t -> float
(** The single element of a one-element tensor. *)

val to_flat_array : t -> float array
(** Copy out the elements in row-major order. *)

val to_2d : t -> float array array
(** Copy a matrix out as rows. *)

val storage : t -> float array * int
(** [storage t] is [t]'s backing array and the flat index of its first
    element, the rest following in row-major order.  Writes through the
    array mutate [t] (and every view sharing it).  For hot loops in other
    modules: compiled with [-opaque], a call to {!get2} cannot be inlined
    and boxes the float it returns. *)

(** {1 Views and reshaping} *)

val reshape : t -> int array -> t
(** Same elements, new shape (zero-copy for non-view tensors; copies when the
    tensor is a view).  Element count must be preserved. *)

val copy : t -> t
(** Deep copy (materializes views). *)

val view : t -> int array -> t
(** [view t shape'] is a zero-copy view of the first [product shape']
    elements of [t]'s backing store under the new shape — the primitive the
    arena memory planner uses to carve per-buffer tensors out of a shared
    storage slot.  [t] must not itself be a view, and the new shape must
    fit inside the backing store.  Mutating the view mutates [t]. *)

val slice0 : t -> int -> t
(** [slice0 t i] is a {e zero-copy view} of the [i]-th slice along the first
    dimension: for a [\[|T; K; N|\]] weight stack it is the [K×N] matrix of
    type [i].  Mutating the view mutates the parent. *)

val row : t -> int -> t
(** [row m i] is a zero-copy 1-D view of row [i] of matrix [m]. *)

val row_array : t -> int -> float array
(** [row_array m i] copies row [i] of matrix [m] out as a flat array with
    a single blit (no per-element closure). *)

val copy_row_into : t -> int -> float array -> unit
(** [copy_row_into m i buf] blits row [i] of matrix [m] into [buf]
    (length must equal the column count) — the allocation-free row read
    used with per-domain scratch buffers. *)

val sub_rows : t -> int -> int -> t
(** [sub_rows m start len] is a zero-copy view of rows
    [start .. start+len-1] of matrix [m] — the segment primitive behind
    segment-MM. *)

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t
(** Apply a function to every element. *)

val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination; shapes must match exactly. *)

val add : t -> t -> t
(** Pointwise sum. *)

val sub : t -> t -> t
(** Pointwise difference. *)

val mul : t -> t -> t
(** Pointwise (Hadamard) product. *)

val div : t -> t -> t
(** Pointwise quotient. *)

val scale : float -> t -> t
(** Multiply every element by a scalar. *)

val add_inplace : t -> t -> unit
(** [add_inplace dst src] accumulates [src] into [dst]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y := a*x + y] (shapes must match). *)

val fill : t -> float -> unit
(** Overwrite every element. *)

val exp : t -> t
(** Pointwise exponential. *)

val leaky_relu : ?slope:float -> t -> t
(** Pointwise leaky ReLU (default slope 0.01) — the RGAT attention
    nonlinearity. *)

val relu : t -> t
(** Pointwise ReLU. *)

(** {1 Linear algebra}

    {b GEMM kernel contract.}  All four [matmul_*_into] entry points (and
    {!matmul}) compute every output element [c(i, j)] exactly as the
    textbook loop does:
    - its starting value is [0.0] when [beta = 0], [c(i, j)] when
      [beta = 1] and [beta *. c(i, j)] otherwise (a scatter sums each
      product row from [0.0] and adds it into [c] at the end);
    - then, for [k] ascending, it adds [a(i, k) *. b(k, j)], skipping every
      term whose [a(i, k)] is [0.0] or [-0.0] (so an infinite or NaN [b]
      behind a zero coefficient never reaches the output).
    Results are therefore bitwise identical to the naive triple loop, at
    any domain count.  Internally each output row is computed eight
    columns at a time with the partial sums held in registers across the
    whole [k] loop, so [c] is read once and written once per element.
    Because of that, [c] must not share storage with [a] or [b]: an output
    whose [\[offset, offset + numel)] range overlaps an operand's range
    in the same buffer raises {!Shape_error}, as do mismatched shapes and
    out-of-range indices, all checked before any element is written. *)

val matmul : ?trans_a:bool -> ?trans_b:bool -> t -> t -> t
(** [matmul a b] is the matrix product of two 2-D tensors, optionally
    transposing either operand logically (no materialized transpose). *)

val matmul_into : ?trans_a:bool -> ?trans_b:bool -> ?beta:float -> t -> t -> t -> unit
(** [matmul_into a b c] computes [c := a*b + beta*c] (default [beta = 0]). *)

(** {2 Fused access-scheme GEMM (paper §4.2)}

    These kernels apply the gather / scatter / transpose access schemes
    {e on the fly inside the register-blocked row loop}, so the per-edge
    operand matrix is never materialized.  Floating-point operations are
    performed in the exact order of the materialize-then-matmul
    equivalent, so the results are bitwise identical to the unfused path.

    Each takes an optional [?idx_off]: the kernel then reads the window
    of [idx] starting at that offset, as long as its row operand needs
    ([c]'s rows for the gather, [a]'s for the scatter, [b]'s for the
    transposed gather), so one relation's rows of a whole-graph endpoint
    column are read in place.  Without it [idx] is read whole.  A window
    running past the end of [idx] raises [Shape_error]. *)

val matmul_gather_into :
  ?trans_b:bool -> ?beta:float -> ?idx_off:int -> t -> idx:int array -> t -> t -> unit
(** [matmul_gather_into a ~idx b c] computes [c := a\[idx\] * b + beta*c]
    where [a\[idx\]] is the row-gathered view of [a] (logical row [i] reads
    physical row [idx.(i)]) — equivalent to
    [matmul_into (gather_rows a idx) b c] without the intermediate. *)

val matmul_scatter_add_into :
  ?trans_b:bool -> ?idx_off:int -> t -> t -> idx:int array -> t -> unit
(** [matmul_scatter_add_into a b ~idx c] accumulates row [i] of the product
    [a*b] into row [idx.(i)] of [c] — equivalent to
    [scatter_rows_add ~into:c idx (matmul a b)] without the intermediate.
    Parallelism is destination-partitioned over the domain pool (like
    {!scatter_rows_add}), so duplicate destinations accumulate in their
    sequential order and no atomics are needed. *)

val matmul_gather_t_into : ?beta:float -> ?idx_off:int -> t -> idx:int array -> t -> t -> unit
(** [matmul_gather_t_into a ~idx b c] computes
    [c := a\[idx\]ᵀ * b + beta*c] — the transpose access scheme composed
    with the gather, used for weight gradients ([dW += X\[src\]ᵀ * dY]). *)

(** {2 Batched matrix-vector products}

    The linear-fusion weight prologue and its gradient, over flat buffers.
    [w] is a [\[|s; k; n|\]] stack and [v] an [s]-row matrix whose columns
    [\[col, col + n)] hold slice [s]'s vector. *)

val mat_vec_into : t -> t -> col:int -> t -> unit
(** [mat_vec_into w v ~col out] sets [out(s, i) := Σ_j w(s, i, j) · v(s, col + j)]
    for the [\[|s; k|\]] matrix [out]; each sum starts at [0.0] and runs
    over [j] ascending. *)

val mat_vec_backward : t -> t -> col:int -> dout:t -> dw:t -> dv:t -> unit
(** [mat_vec_backward w v ~col ~dout ~dw ~dv] accumulates the gradients of
    {!mat_vec_into}: for every [(s, i)] with [g = dout(s, i) <> 0], and [j]
    ascending, [dw(s, i, j) += g · v(s, col + j)] and
    [dv(s, col + j) += g · w(s, i, j)].  [dw] and [dv] have the shapes of
    [w] and [v]. *)

val dot : t -> t -> float
(** Inner product of two same-shape tensors viewed as flat vectors. *)

val outer : t -> t -> t
(** Outer product of two 1-D tensors. *)

(** {1 Reductions} *)

val sum : t -> float
(** Sum of all elements. *)

val mean : t -> float
(** Mean of all elements. *)

val max_value : t -> float
(** Maximum element (raises {!Shape_error} on empty tensors). *)

val sum_rows : t -> t
(** Column-wise sum of a matrix: [\[|r; c|\]] → [\[|c|\]]. *)

val sum_cols : t -> t
(** Row-wise sum of a matrix: [\[|r; c|\]] → [\[|r|\]]. *)

val argmax_rows : t -> int array
(** Per-row argmax of a matrix — used for predictions. *)

(** {1 Gather / scatter (the access-scheme primitives)} *)

val gather_rows : t -> int array -> t
(** [gather_rows m idx] is the matrix whose [i]-th row is row [idx.(i)] of
    [m] — step ① of Figure 4. *)

val scatter_rows_set : into:t -> int array -> t -> unit
(** [scatter_rows_set ~into idx src] writes row [i] of [src] to row
    [idx.(i)] of [into] — step ③ of Figure 4, non-accumulating. *)

val scatter_rows_add : into:t -> int array -> t -> unit
(** Accumulating scatter (the atomic-update analogue). *)

val concat_cols : t -> t -> t
(** [concat_cols a b] concatenates two matrices with equal row counts along
    the feature dimension — the [\[s;t\]] of Figure 2. *)

val split_cols : t -> int -> t * t
(** [split_cols m k] splits a matrix into its first [k] and remaining
    columns (inverse of {!concat_cols}). *)

(** {1 Instrumentation}

    Cheap global counters behind the bench's allocation / bytes-copied
    columns.  They are bumped once per operation (never inside per-element
    loops) and are atomics, so parallel kernels report correctly. *)

val allocation_count : unit -> int
(** Fresh tensor buffers allocated since the last {!reset_counters}. *)

val copied_bytes : unit -> int
(** Bytes moved by bulk row-copy operations (gather, scatter-set, concat,
    split) since the last {!reset_counters} — the materialization traffic
    the fused access-scheme kernels exist to eliminate. *)

val reset_counters : unit -> unit
(** Zero both counters. *)

(** {1 Comparison and printing} *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Shape equality plus max-abs-difference below [tol] (default 1e-4),
    where the difference is relative for large magnitudes. *)

val max_abs_diff : t -> t -> float
(** Largest absolute elementwise difference (shapes must match). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (shape + a few leading elements). *)
