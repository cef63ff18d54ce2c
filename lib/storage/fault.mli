(** Deterministic fault injection for the physical I/O layer.

    A fault handle is installed on a {!Pager} and/or {!Log_manager}
    ([set_fault]); every physical page write, log write and fsync those
    devices perform consults it. When the armed operation count is reached
    the operation is sabotaged — dropped entirely, torn after [keep] bytes,
    or the fsync skipped — and {!Injected} is raised, simulating the
    process dying at exactly that point. Once fired, {e every} subsequent
    operation on the same handle raises too, so code that catches one
    [Injected] cannot keep mutating the "dead" database by accident.

    Determinism: the crash point is chosen by explicit counts ({!arm}) or
    by a caller-seeded {!Rx_util.Prng} ({!arm_random}); nothing here reads
    wall-clock time or global randomness, so a failing seed replays
    exactly.

    Domain-safe: a handle's count-and-decide step is serialized on an
    internal mutex, so operations arriving concurrently from the WAL
    group-commit leader and from reader domains evicting dirty frames are
    counted exactly once each and the crash point stays deterministic for
    a given operation interleaving. *)

(** What happens to the sabotaged operation. *)
type kind =
  | Fail_write  (** the write performs nothing, then the "process dies" *)
  | Torn_write of int
      (** only the first [keep] bytes reach the device — a torn page or a
          torn log tail — then the "process dies" *)
  | Fail_fsync  (** the sync never happens; prior unsynced writes are
                    nevertheless on the simulated device *)

exception Injected of { op : string; kind : kind }
(** The simulated crash. [op] names the I/O site (e.g. ["pager.write"],
    ["wal.flush"]). *)

type t

val create : unit -> t
(** A fresh, disarmed handle. Disarmed handles let all I/O through while
    still counting operations ({!ops_seen}). *)

val arm : t -> after:int -> kind -> unit
(** Fire [kind] on the [after]-th matching operation from now ([after] is
    1-based: [~after:1] fails the very next one). Write kinds count only
    writes, [Fail_fsync] counts only fsyncs; non-matching operations
    proceed. Re-arming resets the fired state. *)

val arm_random : t -> Rx_util.Prng.t -> max_ops:int -> kind
(** Arms a uniformly chosen kind at a uniformly chosen operation count in
    [\[1, max_ops\]], drawn from the caller's seeded PRNG; returns the
    chosen kind for reporting. *)

val fired : t -> bool
(** Whether the armed fault has gone off. *)

val ops_seen : t -> int
(** Total operations observed (fired or not) — used by harnesses to size
    [max_ops] for the next iteration. *)

val kind_to_string : kind -> string

(** {2 Device-side hooks}

    Called by {!Pager} and {!Log_manager} around each physical operation;
    not intended for other callers. *)

val wrap_write : t option -> op:string -> len:int -> write:(int -> unit) -> unit
(** [wrap_write fault ~op ~len ~write] calls [write n] with [n = len]
    normally, [n < len] for a torn write (then raises {!Injected}), or not
    at all for a failed write (raising {!Injected}). *)

val wrap_fsync : t option -> op:string -> sync:(unit -> unit) -> unit
(** Same protocol for fsync. *)
