open Rx_storage

type report = { redone : int; undone : int; losers : int list; max_txid : int }

let apply_image pool ~page_no ~lsn ~off ~image =
  Buffer_pool.modify_unlogged pool page_no (fun page ->
      Bytes.blit_string image 0 page off (String.length image);
      Page.set_lsn page lsn)

(* Undo one transaction's updates, newest first, writing CLRs. [records] must
   be newest-first. *)
let undo_updates log pool ~txid records =
  let undone = ref 0 in
  List.iter
    (fun (_, record) ->
      match record with
      | Log_record.Update { txid = t; page_no; off; before; _ } when t = txid ->
          let clr_lsn =
            Log_manager.append log
              (Log_record.Clr { txid; page_no; off; after = before })
          in
          apply_image pool ~page_no ~lsn:clr_lsn ~off ~image:before;
          incr undone
      | _ -> ())
    records;
  !undone

let run log pool =
  (* Analysis + redo in one pass: repeat history for every Update/Clr whose
     LSN is at least the page LSN (after-image application is idempotent). *)
  let committed = Hashtbl.create 16 in
  let ended = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let redone = ref 0 in
  Log_manager.iter log (fun lsn record ->
      (match Log_record.txid record with
      | Some t -> Hashtbl.replace seen t ()
      | None -> ());
      match record with
      | Log_record.Update { page_no; off; after; _ }
      | Log_record.Clr { page_no; off; after; _ } ->
          let page_lsn =
            Buffer_pool.with_page pool page_no Page.get_lsn
          in
          if Int64.compare lsn page_lsn >= 0 then begin
            apply_image pool ~page_no ~lsn ~off ~image:after;
            incr redone
          end
      | Log_record.Commit { txid } ->
          Hashtbl.replace committed txid ();
          Hashtbl.replace ended txid ()
      | Log_record.Abort { txid } -> Hashtbl.replace ended txid ()
      | Log_record.Checkpoint -> ());
  (* Loser transactions: seen but never committed nor fully aborted. An
     [Abort] record is only written after online rollback completes, so a
     crash mid-rollback leaves the transaction a loser and the CLRs already
     applied are simply extended here. *)
  let losers =
    Hashtbl.fold
      (fun t () acc -> if Hashtbl.mem ended t then acc else t :: acc)
      seen []
    |> List.sort compare
  in
  let records = Log_manager.records_rev log in
  (* Skip updates already compensated: count CLRs per loser and skip that
     many of its newest updates. *)
  let clr_counts = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      match r with
      | Log_record.Clr { txid; _ } ->
          Hashtbl.replace clr_counts txid
            (1 + Option.value ~default:0 (Hashtbl.find_opt clr_counts txid))
      | _ -> ())
    records;
  let undone = ref 0 in
  List.iter
    (fun txid ->
      let to_skip = ref (Option.value ~default:0 (Hashtbl.find_opt clr_counts txid)) in
      let remaining =
        List.filter
          (fun (_, r) ->
            match r with
            | Log_record.Update { txid = t; _ } when t = txid ->
                if !to_skip > 0 then begin
                  decr to_skip;
                  false
                end
                else true
            | _ -> false)
          records
      in
      undone := !undone + undo_updates log pool ~txid remaining;
      ignore (Log_manager.append log (Log_record.Abort { txid })))
    losers;
  Log_manager.flush log;
  Buffer_pool.flush_all pool;
  let max_txid = Hashtbl.fold (fun t () m -> max t m) seen 0 in
  { redone = !redone; undone = !undone; losers; max_txid }

let checkpoint ?archive log pool =
  Log_manager.flush log;
  Buffer_pool.flush_all pool;
  ignore (Log_manager.append log Log_record.Checkpoint);
  Log_manager.flush log;
  (* Capture the whole durable span (including the Checkpoint record just
     flushed) before truncation destroys it: archive generations + the live
     log then cover every frame since LSN 0. *)
  (match archive with
  | Some dir -> Archive.capture ~dir log
  | None -> ());
  Log_manager.truncate log

(* Online rollback reads the transaction's own frames by LSN: its cost
   follows the transaction's size, not the log's. Records a manual
   checkpoint truncated away are past undoing: their before-images are
   gone with the log. *)
let rollback log pool ~txid ~lsns =
  let base = Log_manager.base_lsn log in
  undo_updates log pool ~txid
    (List.filter_map
       (fun lsn ->
         if Int64.compare lsn base < 0 then None
         else Some (lsn, Log_manager.read_at log lsn))
       lsns)
