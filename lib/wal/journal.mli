(** Glue between the buffer pool's logging hooks and the log manager. *)

val make :
  ?on_update:(int64 -> unit) ->
  Log_manager.t ->
  current_txid:(unit -> int) ->
  Rx_storage.Buffer_pool.journal
(** Builds a journal that appends an [Update] record per page change (tagged
    with the transaction id supplied by [current_txid]), passes the
    record's LSN to [on_update], and enforces the WAL rule on page
    write-back. *)

val install :
  ?on_update:(int64 -> unit) ->
  Rx_storage.Buffer_pool.t ->
  Log_manager.t ->
  current_txid:(unit -> int) ->
  unit
(** {!make}, installed as the pool's journal. *)
