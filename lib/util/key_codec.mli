(** Order-preserving, self-delimiting byte encodings for index keys.

    B+tree keys are plain byte strings compared lexicographically; composite
    keys (e.g. [(keyval, DocID, NodeID)] for XPath value indexes, §3.3) are
    built by concatenating the encodings below, each of which preserves the
    component order and delimits itself so no component can bleed into the
    next. *)

val encode_string : Buffer.t -> string -> unit
(** NUL-escaped, NUL-terminated: preserves order for arbitrary bytes. *)

val decode_string : string -> int -> string * int

val skip_string : string -> int -> int
(** The position just past the encoded string at [pos], without copying
    it. *)

val encode_int64 : Buffer.t -> int64 -> unit
(** 8 bytes, big-endian with the sign bit flipped (orders signed values). *)

val decode_int64 : string -> int -> int64 * int

val encode_int : Buffer.t -> int -> unit
val decode_int : string -> int -> int * int

val encode_float : Buffer.t -> float -> unit
(** IEEE-754 total-order trick: negative values are bit-complemented,
    non-negative values get the sign bit set. *)

val decode_float : string -> int -> float * int

val encode_decimal : Buffer.t -> Decimal.t -> unit
val decode_decimal : string -> int -> Decimal.t * int

val encode_raw_suffix : Buffer.t -> string -> unit
(** Appends bytes verbatim; only valid as the final key component (used for
    NodeIDs, whose encoding is already order-preserving and prefix-free at
    component boundaries). *)
