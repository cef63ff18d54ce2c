(** rxd wire protocol: length-prefixed binary frames over a byte stream.

    Every message is one frame: a 4-byte big-endian payload length
    followed by the payload. A request payload is an opcode byte plus
    that operation's fields; a response payload is a status byte —
    [0 = OK] followed by the result, or an error status followed by a
    one-line message. Integers travel as 8-byte big-endian two's
    complement; strings and lists are length-prefixed with an unsigned
    32-bit count. Frames larger than {!max_frame} are rejected before
    their payload is read, and a stream that ends mid-frame raises
    {!Protocol_error} (a stream that ends cleanly {e between} frames is a
    normal disconnect, surfaced as [None] by {!framed_recv}).

    Clients may {e pipeline}: several requests can be written before the
    first response is read, and the server answers strictly in request
    order (up to its [max_pipeline] per-connection bound — beyond it the
    server simply stops reading, so TCP flow control paces the client).

    Result sets larger than one frame stream through cursors:
    [Open_cursor] executes the query and answers [R_cursor]; each
    [Fetch] answers one bounded [R_rows_chunk] (or [R_rows_end] once the
    result is exhausted), so a response of any total size crosses the
    wire without ever exceeding {!max_frame}.

    Error statuses 1–6 reuse the engine's stable error table
    ({!Systemrx.Database.error_code}, identical to the [rx] exit codes);
    status {!status_protocol} (7) marks a malformed or oversized frame,
    after which the connection is unusable and both ends close it. *)

exception Protocol_error of string
(** A malformed frame: truncated stream, oversized or negative length,
    unknown opcode/status/tag, or trailing bytes after a complete
    payload. The connection cannot be resynchronized and must be
    closed. *)

val max_frame : int
(** Largest accepted payload, 16 MiB — bounds a session's memory and
    rejects garbage (e.g. a TLS hello) before allocating for it. Results
    bigger than this stream through [Open_cursor]/[Fetch] chunks. *)

val status_protocol : int
(** Status code 7: the peer sent a frame that does not parse. *)

val default_chunk_bytes : int
(** Default [Open_cursor.chunk_bytes] (256 KiB): the serialized-row
    budget of one [R_rows_chunk]. *)

(** One client request. Operations act on the connection's session: a
    session holds at most one open transaction (DML and queries join it
    implicitly while it is open), a table of prepared statements, and a
    table of open cursors. *)
type request =
  | Hello of { token : string; client : string }
      (** Mandatory first request (auth stub: [token] must match the
          server's configured secret, empty when the server has none). *)
  | Query of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Prepare of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Run_prepared of { stmt : int }
  | Begin
  | Commit of { txid : int }
      (** [txid = 0] commits the session's current transaction whatever
          its id — what a pipelined [Begin; ...; Commit] flight uses,
          since the id is not known when the flight is written. *)
  | Rollback of { txid : int }  (** [txid = 0] as in [Commit]. *)
  | Insert of {
      table : string;
      values : (string * string) list;  (** varchar column values *)
      xml : (string * string) list;  (** XML column documents *)
    }
  | Insert_many of { table : string; column : string; docs : string list }
      (** Bulk load; refused inside an explicit transaction. *)
  | Delete of { table : string; docid : int }
  | Get of { table : string; column : string; docid : int }
  | Stats  (** The {!Systemrx.Stats_report.json} document. *)
  | Shutdown  (** Graceful server shutdown (reply comes first). *)
  | Bye  (** Orderly session close. *)
  | Repl_state
      (** The leader's replication position ({!ok.R_repl_state}): WAL base
          and durable LSNs plus the archived generation count. *)
  | Repl_fetch of { from_lsn : int64; max_bytes : int }
      (** Ship durable WAL frames from [from_lsn] (a frame-boundary LSN:
          [0], or [start_lsn + length of frames] from a previous batch),
          cut at a frame boundary within [max_bytes] (the first frame
          always ships whole). Positions below the live WAL base are
          served from the leader's archive. *)
  | Open_cursor of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
      chunk_bytes : int;
          (** serialized-row budget per [R_rows_chunk]; [<= 0] means
              {!default_chunk_bytes}, and the server clamps it so a chunk
              frame never exceeds {!max_frame} *)
    }
      (** Plans and executes the query like [Query], but answers
          [R_cursor] instead of materializing the rows: the result
          streams through subsequent [Fetch] requests in bounded-memory
          chunks. Joins the session transaction when one is open. *)
  | Fetch of { cursor : int }
      (** The next chunk of an open cursor: [R_rows_chunk] with at least
          one row, or [R_rows_end] when the cursor is exhausted (which
          also closes it server-side). *)
  | Close_cursor of { cursor : int }
      (** Frees a cursor early; idempotent on an already-ended cursor id
          is an application error (the id is gone). *)
  | Index_build of {
      table : string;
      column : string;
      name : string;
      path : string;
      key_type : string;  (** ["string"] or ["double"] *)
    }
      (** Builds a value index online ({!Systemrx.Database.Index.build})
          and waits for it to go live; concurrent requests on {e other}
          connections keep running while the build scans. Answers
          [R_index_info] for the live generation. *)
  | Index_status of { table : string; column : string; name : string }
      (** One index's current state, including mid-build progress. *)
  | Index_rollback of { table : string; column : string; name : string }
      (** Swaps the retained prior generation back live
          ({!Systemrx.Database.Index.rollback}); answers [R_index_info]
          for the restored generation. *)
  | Index_drop of { table : string; column : string; name : string }
      (** Drops the index and every retained generation. *)
  | Index_list of { table : string; column : string }
      (** All indexes on the column, live and building. *)

(** One index generation as reported over the wire — the flat mirror of
    {!Systemrx.Database.Index.info}. [ix_state] is ["live"],
    ["building"], or ["failed: <reason>"]; [ix_prior_generation] is [0]
    when no prior generation is retained; the [ix_docs_*] pair is the
    scan progress of an in-flight build ([scanned = total] once live). *)
type index_info = {
  ix_name : string;
  ix_path : string;
  ix_key_type : string;
  ix_state : string;
  ix_generation : int;
  ix_entries : int;
  ix_build_ms : int;
  ix_prior_generation : int;
  ix_docs_scanned : int;
  ix_docs_total : int;
}

(** An OK response's payload, one constructor per result shape. *)
type ok =
  | R_hello of { server : string; session : int }
  | R_matches of { plan : string; matches : (int * string) list }
      (** Query results: the executed plan description plus
          [(docid, serialized subtree)] per match, in document order. *)
  | R_prepared of { stmt : int; plan : string }
  | R_txn of { txid : int }
  | R_unit
  | R_docid of { docid : int }
  | R_docids of { docids : int list }
  | R_doc of { doc : string }
  | R_stats of { json : string }
  | R_repl_state of {
      base_lsn : int64;
      durable_lsn : int64;
      generations : int;
      page_size : int;  (** a fresh replica must adopt this geometry *)
    }
  | R_repl_batch of { start_lsn : int64; durable_lsn : int64; frames : string }
      (** A span of raw CRC-framed WAL bytes starting at [start_lsn]
          (which exceeds the asked [from_lsn] only when the leader's
          history below it is gone — unrecoverable without a rebuild).
          [frames] is empty when the replica is caught up to
          [durable_lsn]. LSNs travel as true 8-byte big-endian [int64]s. *)
  | R_cursor of { cursor : int; plan : string }
      (** An opened cursor: its session-local id and the executed
          access-plan description. *)
  | R_rows_chunk of { matches : (int * string) list }
      (** One bounded chunk of cursor rows, never empty: document order
          continues across chunks. *)
  | R_rows_end  (** The cursor is exhausted and has been freed. *)
  | R_index_info of { info : index_info }
      (** One index's state, answering the [Index_build] /
          [Index_status] / [Index_rollback] requests. *)
  | R_index_list of { infos : index_info list }
      (** Every index on the asked column, answering [Index_list]. *)

type response = Ok of ok | Err of { status : int; message : string }

val encode_request : request -> string
(** The request's frame payload (no length prefix). *)

val encode_request_into : Buffer.t -> request -> unit
(** Appends the request's payload to [b] — the allocation-free form
    {!encode_request} wraps; every integer field goes through
    [Buffer.add_int*_be], so encoding into a retained buffer performs no
    per-frame allocation. *)

val decode_request : string -> request
(** @raise Protocol_error on an unknown opcode, truncation or trailing
    bytes. *)

val encode_response : response -> string
(** The response's frame payload (no length prefix). *)

val encode_response_into : Buffer.t -> response -> unit
(** Appends the response's payload to [b], like {!encode_request_into}. *)

val decode_response : string -> response
(** @raise Protocol_error like {!decode_request}. *)

(** {1 Blocking framing}

    Each frame is a 4-byte big-endian payload length, then the payload. A
    {!framer} holds one connection's retained buffers — encode scratch,
    wire buffer, receive scratch, each grown to the largest frame seen —
    so a long-lived connection frames without per-frame allocation. A
    framer belongs to exactly one connection and is not thread-safe. *)

type framer
(** Retained encode/decode scratch for one connection. *)

val framer : unit -> framer
(** A fresh framer (a few KiB until frames grow it). *)

val framed_send :
  framer -> Unix.file_descr -> (Buffer.t -> 'a -> unit) -> 'a -> unit
(** [framed_send fr fd encode v] writes one frame whose payload [encode]
    appends (e.g. {!encode_request_into}), header and payload in one
    [write] loop.
    @raise Invalid_argument if the payload exceeds {!max_frame}. *)

val framed_recv : framer -> Unix.file_descr -> (string -> 'a) -> 'a option
(** [framed_recv fr fd decode] reads one frame into the framer's receive
    buffer and decodes its payload (e.g. {!decode_response}); [None] on a
    clean disconnect (EOF before any header byte).
    @raise Protocol_error on a torn, oversized or malformed frame. *)
