(** The repository's one JSON encoder and decoder.

    Every JSON document Hector writes — metrics envelopes, the chrome
    trace, the bench baselines, the checkpoint header and the tuning
    database — is built as a {!t} value and printed by {!to_string}; every
    one it reads goes through {!parse}.  The repository carries no external
    JSON dependency.

    {2 Encoding}

    {!to_string} is compact: no whitespace between tokens, members in list
    order.

    - {e Numbers.}  An integral value of magnitude below 2{^53} prints as a
      plain integer ([56], [-0]).  Any other finite value prints as the
      shortest [%g] decimal that reads back as the same float ([0.1],
      [1e+300]), so a printed number is exactly the float the program
      holds.  JSON has no NaN or infinity: a non-finite value prints as
      [null].
    - {e Strings} (values and keys) go through {!escape}: a double quote
      or a backslash gets a backslash in front, every byte below [0x20]
      becomes [\u00XX] (lower-case hex), and every other byte is copied
      as is. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** [int n] is [Num (float_of_int n)], exact for [|n| <= 2{^53}]. *)

val escape : string -> string
(** The escape rule above, for embedding between double quotes. *)

val to_string : t -> string
(** The compact encoding above. *)

exception Malformed
(** Raised by {!parse} and the typed accessors on any structural error. *)

val parse : string -> t
(** Parse a complete JSON document (trailing garbage rejected).  [\uXXXX]
    decodes to the byte itself below [0x80] and to its UTF-8 encoding above
    (a surrogate pair to the UTF-8 of its code point); a non-hex digit or
    an unpaired surrogate is {!Malformed}, and so is an unescaped byte
    below [0x20] inside a string.  [parse (to_string v)] is [v]
    for every [v] without non-finite numbers. *)

val member : t -> string -> t option
(** Object field lookup ([None] on missing field or non-object). *)

val bool_field : t -> string -> bool -> bool
(** [bool_field o name default] — the boolean field, [default] when
    missing; raises {!Malformed} on a non-boolean value. *)

val num_field : t -> string -> float -> float

val int_field : t -> string -> int -> int
(** Like {!num_field}, but raises {!Malformed} unless the number is
    integral and at most 2{^53} in magnitude. *)

val str_field : t -> string -> string
(** Required string field; raises {!Malformed} when missing. *)

val str_field_opt : t -> string -> string option
(** Optional string field ([Null] and absence both map to [None]). *)

val int_array_field : t -> string -> int array
(** Required array of integers, each checked as in {!int_field}. *)

val write_atomic : string -> string -> unit
(** [write_atomic path data] writes [data] to a pid-suffixed sibling
    temporary, flushes, closes and renames it onto [path] — a crash at any
    point leaves the previous contents of [path] intact (the temporary is
    removed on a write error). *)

val read_file : string -> string
(** Read a whole file (binary-safe). *)
