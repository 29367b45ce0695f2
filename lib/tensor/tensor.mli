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
    [start .. start+len-1] of matrix [m]. *)

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

    {b GEMM kernel contract.}  Every [matmul_*_into] and [segment_*_into]
    entry point (and {!matmul}) computes every output element [c(i, j)]
    exactly as the textbook loop does:
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
    equivalent, so the results are bitwise identical to the unfused path. *)

val matmul_gather_into : ?trans_b:bool -> ?beta:float -> t -> idx:int array -> t -> t -> unit
(** [matmul_gather_into a ~idx b c] computes [c := a\[idx\] * b + beta*c]
    where [a\[idx\]] is the row-gathered view of [a] (logical row [i] reads
    physical row [idx.(i)]) — equivalent to
    [matmul_into (gather_rows a idx) b c] without the intermediate. *)

(** {2 Segmented GEMM: one call per typed-linear step}

    The segmented forms run every relation of a GEMM step in one call and
    one parallel region.  [offsets] has one entry per segment plus one,
    rises from [0] to the segmented row count, and row range
    [\[offsets.(s), offsets.(s+1))] is segment [s] (possibly empty); a
    [\[|S; k; n|\]] stack supplies slice [s] to segment [s], and its
    first dimension must equal the segment count [S].  Every output
    element is the one a one-relation GEMM would compute on that segment
    with that slice, bit for bit; {!matmul_into} and {!matmul_gather_into}
    are the case [S = 1].  Malformed offsets raise {!Shape_error} before
    any element is written. *)

val segment_matmul_into :
  ?trans_a:bool -> ?trans_b:bool -> ?beta:float -> offsets:int array -> t -> t -> t -> unit
(** [segment_matmul_into ~offsets a b c]: [offsets] splits [a]'s rows.
    Without [trans_a], [b] is the stack and segment [s] of [c]'s rows is
    [a\[seg s\] * b\[s\] + beta*c] (the node typed linear).  With
    [trans_a], [b] has [a]'s rows too and [c] is the stack:
    [c\[s\] := a\[seg s\]ᵀ * b\[seg s\] + beta*c\[s\]] (its weight
    gradient). *)

val segment_gather_into :
  ?trans_b:bool ->
  ?rep:int array ->
  ?scale:t ->
  offsets:int array ->
  t ->
  idx:int array ->
  t ->
  t ->
  unit
(** [segment_gather_into ~offsets a ~idx w c] overwrites row [i] of [c]
    with [a\[idx.(i)\] * w\[s\]], [s] the segment holding [i], then
    multiplies it by [scale(i, 0)] when [scale] (an [m]-row matrix) is
    given — the per-row scalar fused into the GEMM.

    [rep] names each row's representative: a row [i] with [rep.(i) <> i]
    is not computed but copied from row [rep.(i)], which must lie in the
    same segment, gather the same row of [a] ([idx.(rep.(i)) = idx.(i)])
    and be its own representative — so the copy is bitwise the row a
    recomputation would give.  Every computed row is finished before any
    copy starts, and every copy before any row is scaled, so each row
    still takes its own factor.  The copies are output reuse, not operand
    materialization, and do not count toward {!copied_bytes}. *)

val segment_scatter_add_into :
  ?trans_b:bool -> ?pairs:int array -> offsets:int array -> t -> t -> idx:int array -> t -> unit
(** [segment_scatter_add_into ~offsets a w ~idx c] accumulates row [i] of
    [a * w\[s\]] into row [idx.(i)] of [c], segments in order — equivalent
    to [scatter_rows_add ~into:c idx] of the product without the
    intermediate.  Parallelism is destination-partitioned over the domain
    pool (like {!scatter_rows_add}), so duplicate destinations accumulate
    in their sequential order and no atomics are needed.  With
    [pairs], [a] is first pair-summed (below) and [offsets] and [idx]
    index the pair rows. *)

val segment_gather_t_into :
  ?beta:float -> ?pairs:int array -> offsets:int array -> t -> idx:int array -> t -> t -> unit
(** [segment_gather_t_into ~offsets a ~idx b c]: [offsets] splits [b]'s
    rows and [idx]; [c] is the stack, and
    [c\[s\] := a\[idx\[seg s\]\]ᵀ * b\[seg s\] + beta*c\[s\]] (the
    edge weight gradient).  With [pairs], [b] is first pair-summed
    (below) and [offsets] and [idx] index the pair rows.

    {b Pair sums.}  [pairs] (one entry per row of the edge operand, each
    below [Array.length idx]) names the pair row each row belongs to.
    The kernel first sums the operand into pair rows — pair row [p] starts
    at [0.0] and adds every row [i] with [pairs.(i) = p], [i] ascending,
    exactly as {!scatter_rows_add} into a zeroed matrix — and then runs
    the GEMM above on the pair rows.  Rows that share a gathered row of
    [a] (or a destination of [c]) and a weight slice thus cost one
    multiply, not one each: this is how an edge-space gradient is
    computed at the cost of its (relation, endpoint) pairs.  The pair rows
    live in a workspace owned by the calling domain and kept at its
    high-water size: it grows (counted by {!allocation_count}) only when
    a call needs more rows than any earlier call on that domain, and it is
    never device memory. *)

val reserve_pair_rows : rows:int -> cols:int -> unit
(** Grow the calling domain's pair-sum workspace to hold [rows × cols]
    floats now, so later pair-summed calls up to that size allocate
    nothing. *)

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

val argmax_rows : t -> int array
(** Per-row argmax of a matrix — used for predictions. *)

(** {1 Gather / scatter (the access-scheme primitives)} *)

val gather_rows : t -> int array -> t
(** [gather_rows m idx] is the matrix whose [i]-th row is row [idx.(i)] of
    [m] — step ① of Figure 4. *)

val scatter_rows_add : into:t -> int array -> t -> unit
(** [scatter_rows_add ~into idx src] adds row [i] of [src] into row
    [idx.(i)] of [into], [i] ascending per destination — the accumulating
    scatter (the atomic-update analogue), destination-partitioned over the
    domain pool.  An [into] sharing storage with [src] raises
    {!Shape_error}. *)

val concat_cols : t -> t -> t
(** [concat_cols a b] concatenates two matrices with equal row counts along
    the feature dimension — the [\[s;t\]] of Figure 2. *)

(** {1 Instrumentation}

    Cheap global counters behind the bench's allocation / bytes-copied
    columns.  They are bumped once per operation (never inside per-element
    loops) and are atomics, so parallel kernels report correctly.  They
    only grow: callers measure the difference across a region. *)

val allocation_count : unit -> int
(** Fresh tensor buffers allocated since program start. *)

val copied_bytes : unit -> int
(** Bytes moved by bulk row-copy operations (gather, concat) since
    program start — the materialization traffic the fused access-scheme
    kernels exist to eliminate. *)

(** {1 Comparison and printing} *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Shape equality plus max-abs-difference below [tol] (default 1e-4),
    where the difference is relative for large magnitudes. *)

val max_abs_diff : t -> t -> float
(** Largest absolute elementwise difference (shapes must match). *)

val pp : Format.formatter -> t -> unit
(** Debug printer (shape + a few leading elements). *)
