(** Lightweight trace spans: named, attributed, nested timing scopes kept in
    a bounded in-memory ring. A span opens when {!with_span} enters its
    callback and closes when the callback returns (or raises — nesting is
    always rebalanced), so [open_spans] is 0 whenever no traced code is on
    the stack. *)

type span = {
  name : string;
  attrs : (string * string) list;
  depth : int;  (** nesting depth at open time; top-level spans are 0 *)
  start_s : float;  (** wall-clock seconds (Unix epoch) *)
  dur_s : float;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the retained finished spans (default 1024; oldest
    dropped first). *)

val default : t

val with_span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span t ~attrs name f] runs [f] inside a span named [name] and
    returns its result; the span is recorded when [f] returns or raises
    (the exception is re-raised). *)

val open_spans : t -> int
(** Number of currently open (entered, not yet exited) spans. *)

val started : t -> int
(** Spans ever opened. *)

val finished_count : t -> int
(** Spans ever closed, including those since dropped from the ring. *)

val finished : t -> span list
(** Retained finished spans, most recent first. *)

val clear : t -> unit
(** Drops retained spans; keeps the started/finished totals. *)

val to_json : t -> Json.t
(** Array of retained spans, most recent first. *)
