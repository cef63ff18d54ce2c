(** ARIES-style crash recovery over the physiological log: a redo pass that
    repeats history (idempotent via page LSNs), then an undo pass that rolls
    back loser transactions, writing compensation records. *)

type report = {
  redone : int; (** records whose after-image was applied *)
  undone : int; (** updates rolled back for loser transactions *)
  losers : int list; (** transaction ids rolled back *)
  max_txid : int;
      (** highest transaction id appearing anywhere in the log. Loser
          detection keys on txids, so ids must never repeat within one
          log span: a process that appends to a recovered log must issue
          ids strictly above this. *)
}

val run : Log_manager.t -> Rx_storage.Buffer_pool.t -> report
(** Recovers the database in [pool] from [log], then flushes and
    checkpoints. *)

val checkpoint :
  ?archive:string -> Log_manager.t -> Rx_storage.Buffer_pool.t -> unit
(** Flushes all dirty pages, forces the log, appends a checkpoint record and
    truncates the log. Must be called with no transaction in flight.
    [archive] names a WAL archive directory: when present, the whole
    durable log span (checkpoint record included) is captured there as a
    new generation ({!Archive.capture}) before truncation destroys it. *)

val apply_image :
  Rx_storage.Buffer_pool.t ->
  page_no:int ->
  lsn:int64 ->
  off:int ->
  image:string ->
  unit
(** Applies one logged image to a page and stamps the page LSN — the single
    redo primitive shared by recovery, replica WAL apply and restore.
    Bypasses the journal ([Buffer_pool.modify_unlogged]): the change is
    already logged. *)

val rollback :
  Log_manager.t -> Rx_storage.Buffer_pool.t -> txid:int -> lsns:int64 list -> int
(** Online rollback of one live transaction: applies the before-images of
    its [Update] records at [lsns] (newest first, as the transaction
    appended them), writing CLRs; returns the number of updates undone.
    Only those frames are decoded ({!Log_manager.read_at}), so the cost
    does not grow with the log; LSNs a checkpoint truncated away are
    skipped. The caller appends the [Abort] record. *)
