let make ?(on_update = ignore) log ~current_txid =
  {
    Rx_storage.Buffer_pool.log_update =
      (fun ~page_no ~off ~before ~after ->
        let lsn =
          Log_manager.append log
            (Log_record.Update { txid = current_txid (); page_no; off; before; after })
        in
        on_update lsn;
        lsn);
    ensure_durable = (fun lsn -> Log_manager.flush_to log (Int64.add lsn 1L));
  }

let install ?on_update pool log ~current_txid =
  Rx_storage.Buffer_pool.set_journal pool (Some (make ?on_update log ~current_txid))
