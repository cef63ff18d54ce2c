(** Decimal floating-point numbers in the spirit of IEEE 754r, used for
    numeric XPath value-index keys (§4.3 of the paper): values parsed from
    document text are kept precise within range instead of rounding through
    binary floating point.

    A value is normalized scientific form: [sign * 0.d1 d2 ... dn * 10^exp]
    with [d1 <> 0] and [dn <> 0] (the zero value has no digits). Comparison
    is exact and the key encoding is order-preserving under byte-string
    comparison. *)

type t

val zero : t
val of_int : int -> t

val of_string : string -> t option
(** Parses decimal literals: [-12.5e3], [0.001], [42], [+.5]. Returns
    [None] on malformed input. *)

val of_string_exn : string -> t
val of_float : float -> t
val to_float : t -> float
val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t

val encode_key : t -> string
(** Order-preserving, self-delimiting byte encoding: for all [a], [b],
    [compare a b] equals [String.compare (encode_key a) (encode_key b)]. *)

val decode_key : string -> int -> t * int
(** Inverse of {!encode_key}; returns the value and the position just past
    the encoding. *)

val skip_key : string -> int -> int
(** The position just past the encoding at [pos], without decoding it. *)

val pp : Format.formatter -> t -> unit
