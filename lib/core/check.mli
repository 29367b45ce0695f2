(** Validation and shape inference for inter-operator IR programs.

    Runs before any transform: verifies that entities are used in valid
    loop contexts (e.g. [e.src] only where an edge is in scope), that reads
    refer to declared inputs/weights or previously produced data, that
    weight slicing matches the context, and infers the shape of every
    produced variable.  The compiler refuses programs that do not check. *)

(** Value shapes: scalars or feature vectors of known width.  Declared
    inputs of dimension 1 read as scalars. *)
type shape = Sc | Vec of int

type var_info = {
  scope : [ `Node | `Edge ];
  name : string;
  shape : shape;
  accumulated : bool;  (** defined (also) through [+=] — needs zero-init *)
}

val check : Inter_ir.program -> (var_info list, string) result
(** Validate a program.  On success, returns info for every produced
    variable in first-definition order; on failure, a human-readable
    description of the first error. *)

val check_exn : Inter_ir.program -> var_info list
(** Like {!check} but raises [Invalid_argument]. *)

val shape_of_decl : Inter_ir.decl -> shape
(** The shape a declared tensor reads as: a weight matrix is one
    [rows * cols] vector, anything of dimension 1 a scalar. *)

val width :
  Inter_ir.program -> read:(Inter_ir.entity -> string -> shape) -> Inter_ir.expr -> shape
(** The shape of an expression by {!check}'s rules, without validating:
    [read] gives each [Feature]/[Data] leaf's shape, the program's
    declarations each weight's.  On a program that checks it agrees with
    {!check}'s inferred shapes; elsewhere it still answers — a mismatched
    pointwise pair takes the larger width, an undeclared weight or a
    [Linear] against a non-matrix weight is a scalar, and a [Linear]
    against a computed operand keeps its input's shape.  The one width
    rule behind backward generation and launch pricing. *)

val shape_dim : shape -> int
(** Width of a shape (scalars are 1). *)

val pp_shape : Format.formatter -> shape -> unit
(** ["scalar"] or ["vec<n>"]. *)
