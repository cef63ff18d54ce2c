(** Append-only write-ahead log. LSNs are strictly increasing byte
    positions ([base + offset]), so "durable up to LSN" is a single
    comparison. The base persists in the file header and advances at
    {!truncate}, keeping LSNs monotonic across checkpoints — a page LSN
    stamped before a truncation can never alias a later record.

    Integrity: each record is framed as [u32 length | u32 CRC-32 | payload].
    On {!open_file}, the longest prefix of complete, CRC-valid frames is
    the log; anything after it is a torn tail from a crash mid-flush and is
    silently truncated (counted in [wal.torn_tail_bytes]). A CRC-valid
    frame that fails to decode mid-file is real corruption and raises
    {!Corrupt_record}.

    Durability: {!append} only stages the frame in the write buffer; a
    record is durable once {!flush} / {!flush_to} / {!group_commit} (write
    + fsync) has covered its LSN. Once the staged-but-unwritten span
    exceeds {!set_buffer_limit} bytes, [append] batch-writes it to the fd
    {e without} fsyncing — that bounds the write the next flush performs
    while claiming no durability (spilled frames a crash strands are healed
    like any torn tail).

    Concurrency: {!append}, {!truncate}, {!iter} and {!records_rev} must be
    externally serialized (the engine's write path holds its own lock
    around them). {!flush}, {!flush_to} and {!group_commit} are
    thread-safe: concurrent callers elect one leader that performs the
    single write + fsync while the rest wait and absorb the result. *)

type t

exception Corrupt_record of { lsn : int64 }
(** A CRC-valid frame whose payload does not decode — mid-file corruption
    (distinct from a torn tail, which is healed silently at open). *)

val create_in_memory : ?metrics:Rx_obs.Metrics.t -> unit -> t
(** A log with no backing file: flushes mark records durable without any
    I/O. For tests and in-memory databases. *)

val open_file : ?metrics:Rx_obs.Metrics.t -> string -> t
(** Opens (creating if absent) a file-backed log, truncating any torn
    tail. [metrics] receives the [wal.records] / [wal.bytes_appended] /
    [wal.forced_syncs] / [wal.torn_tail_bytes] / [wal.frames_read] and
    [wal.group_commit.{groups,absorbed,fsyncs}] counters (default: the
    global registry). [wal.frames_read] counts frames decoded from the
    live log by {!iter}, {!records_rev} and {!read_at}.
    @raise Failure on a bad magic. *)

val append : t -> Log_record.t -> int64
(** Appends and returns the record's LSN; does not force to disk (but may
    spill staged frames to the fd, unfsynced, past the buffer limit). *)

val flush : t -> unit
(** Forces all appended records to stable storage (write + fsync). *)

val flush_to : t -> int64 -> unit
(** No-op if the LSN is already durable, otherwise {!flush}. *)

val group_commit : t -> ?wait:bool -> int64 -> unit
(** [group_commit t lsn] makes the log durable at least up to [lsn],
    sharing the fsync among concurrent committers: if a leader's flush is
    already in flight the call waits for it (and usually returns without
    any I/O of its own — counted in [wal.group_commit.absorbed]);
    otherwise the caller becomes the leader, optionally holds the commit
    window open (see {!set_commit_window}) so later committers can join
    the group, then performs one write + fsync covering every record
    appended so far ([wal.group_commit.groups] / [.fsyncs]). [wait]
    (default [true]) is a hint that other committers are active and the
    window is worth holding open; pass [false] when the caller is alone so
    an uncontended commit pays no latency. *)

val set_commit_window : t -> int -> unit
(** Microseconds a group-commit leader holds its window open before
    flushing (clamped at 0 = flush immediately, the default). Only
    consulted when [group_commit ~wait:true] elects a leader on a
    file-backed log. *)

val set_buffer_limit : t -> int -> unit
(** Staged-but-unwritten bytes beyond which {!append} spills the write
    buffer to the fd (no fsync). Default 256 KiB; 0 writes frames through
    on every append (still without fsync). *)

val durable_lsn : t -> int64
(** LSN up to which the log is on stable storage. *)

val tail_lsn : t -> int64
(** LSN one past the last record. *)

val base_lsn : t -> int64
(** LSN of the first byte of the current log contents (the persistent base
    written in the file header; advances at every {!truncate}). *)

val raw_since : t -> ?max_bytes:int -> int64 -> int64 * string
(** [raw_since t ~max_bytes from] returns [(start, frames)]: the raw frame
    bytes of the {e durable} log from LSN [from] onward, cut at a frame
    boundary no more than [max_bytes] past the start (the first frame is
    always included so a caller with a small budget still makes progress;
    default unlimited). Only fsynced bytes are returned — the durable
    prefix never regresses across a crash, so a frame shipped from here can
    never later disappear. [from] must be a frame-boundary LSN previously
    produced by this log (an {!append} result, {!base_lsn}, or
    [start + String.length frames] of a prior call); a [from] below the
    base clamps to the base, which the caller detects as [start > from] and
    resolves from the {!Archive}. A [from] at or past the durable tail
    returns empty [frames]. *)

val reset_base : t -> int64 -> unit
(** Moves the base LSN of an {e empty} log (contents fully truncated),
    rewriting and fsyncing the file header. Used at replica promotion: the
    replica's local log was never appended to, and must restart at the
    replication cursor so post-promotion records continue the leader's LSN
    timeline above every replicated page LSN.
    @raise Invalid_argument if the log is not empty. *)

val decode_frames : base:int64 -> string -> (int64 * Log_record.t) list
(** Strictly decodes a raw frame stream as produced by {!raw_since} (or
    stored in an archive generation) into [(lsn, record)] pairs, where
    [base] is the LSN of the stream's first byte. Every byte must belong to
    a complete, CRC-valid, decodable frame — unlike {!open_file}, nothing
    is healed, because these streams are never legitimately torn.
    @raise Corrupt_record on any defect, carrying the offending LSN. *)

val iter : t -> ?from:int64 -> (int64 -> Log_record.t -> unit) -> unit
(** Iterates durable-and-buffered records in order.
    @raise Corrupt_record on a frame that fails its CRC or does not
    decode. *)

val read_at : t -> int64 -> Log_record.t
(** The record whose frame starts at [lsn] (an {!append} result not yet
    truncated away), decoded alone. Thread-safe. Undo uses it to read a
    transaction's own records without decoding the rest of the log.
    @raise Invalid_argument if [lsn] is outside the current log.
    @raise Corrupt_record if the frame fails its CRC or does not decode. *)

val records_rev : t -> (int64 * Log_record.t) list
(** All records, newest first (for the undo pass). *)

val truncate : t -> unit
(** Discards the log contents and advances the persistent LSN base to the
    old tail (only valid right after a checkpoint with no active
    transactions). The emptied log + new header are fsynced before
    returning. *)

val appended_bytes : t -> int
(** Total bytes ever appended — log-volume accounting for benchmarks and
    the auto-checkpoint trigger. *)

val record_count : t -> int
(** Number of records currently in the log (since the last truncation). *)

val torn_tail_bytes : t -> int
(** Bytes discarded as a torn tail when this handle was opened; [0] for a
    clean log or the in-memory backend. *)

val set_fault : t -> Rx_storage.Fault.t option -> unit
(** Installs (or clears) a fault-injection handle consulted by every
    physical write (flush and append-spill) and fsync. Testing only. *)

val close : t -> unit
(** Releases the backing file descriptor without flushing buffered
    records — callers flush first (or deliberately don't, to simulate a
    crash). *)
