open Rx_storage
open Rx_wal

let check = Alcotest.check

(* A tiny "database": one heap file over an in-memory pager that plays the
   role of the disk; the buffer pool is volatile memory. *)
type db = {
  pool : Buffer_pool.t;
  log : Log_manager.t;
  mutable txid : int;
}

let make_db () =
  let pool = Buffer_pool.create ~capacity:64 (Pager.create_in_memory ~page_size:512 ()) in
  let log = Log_manager.create_in_memory () in
  let db = { pool; log; txid = 0 } in
  Journal.install pool log ~current_txid:(fun () -> db.txid);
  db

let commit db =
  ignore (Log_manager.append db.log (Log_record.Commit { txid = db.txid }));
  Log_manager.flush db.log

let crash db = Buffer_pool.drop_cache db.pool
let recover db = Recovery.run db.log db.pool

(* --- log manager --- *)

let test_log_roundtrip () =
  let log = Log_manager.create_in_memory () in
  let records =
    [
      Log_record.Update { txid = 1; page_no = 2; off = 30; before = "aa"; after = "bb" };
      Log_record.Clr { txid = 1; page_no = 2; off = 30; after = "aa" };
      Log_record.Commit { txid = 1 };
      Log_record.Abort { txid = 2 };
      Log_record.Checkpoint;
    ]
  in
  let lsns = List.map (Log_manager.append log) records in
  check Alcotest.bool "lsns increase" true
    (List.sort compare lsns = lsns && List.sort_uniq compare lsns = lsns);
  let seen = ref [] in
  Log_manager.iter log (fun _ r -> seen := r :: !seen);
  check Alcotest.int "all records read back" (List.length records) (List.length !seen);
  check Alcotest.bool "same contents" true (List.rev !seen = records)

let test_log_file_backend () =
  let path = Filename.temp_file "rxlog" ".wal" in
  let log = Log_manager.open_file path in
  ignore (Log_manager.append log (Log_record.Commit { txid = 7 }));
  Log_manager.flush log;
  let log2 = Log_manager.open_file path in
  let seen = ref [] in
  Log_manager.iter log2 (fun _ r -> seen := r :: !seen);
  check Alcotest.bool "record survived reopen" true
    (!seen = [ Log_record.Commit { txid = 7 } ]);
  Sys.remove path

(* --- recovery --- *)

let test_recover_committed () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "durable" in
  commit db;
  crash db;
  let report = recover db in
  check Alcotest.bool "redo happened" true (report.Recovery.redone > 0);
  check Alcotest.int "no losers" 0 (List.length report.Recovery.losers);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "committed data recovered" "durable" (Heap_file.read heap2 rid)

let test_recover_uncommitted_rolled_back () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid1 = Heap_file.insert heap "keep" in
  commit db;
  db.txid <- 2;
  let _rid2 = Heap_file.insert heap "lose" in
  (* no commit for tx 2; some of its pages may even be on disk *)
  Buffer_pool.flush_all db.pool;
  crash db;
  let report = recover db in
  check (Alcotest.list Alcotest.int) "tx2 is a loser" [ 2 ] report.Recovery.losers;
  check Alcotest.bool "undo happened" true (report.Recovery.undone > 0);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "tx1 data intact" "keep" (Heap_file.read heap2 rid1);
  check Alcotest.int "tx2 insert rolled back" 1 (Heap_file.record_count heap2)

let test_recovery_idempotent () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "again" in
  commit db;
  crash db;
  ignore (recover db);
  crash db;
  ignore (recover db);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "double recovery ok" "again" (Heap_file.read heap2 rid)

let test_online_rollback () =
  let db = make_db () in
  (* remember tx 2's Update LSNs, newest first, as a transaction does *)
  let lsns = ref [] in
  Journal.install db.pool db.log
    ~current_txid:(fun () -> db.txid)
    ~on_update:(fun lsn -> if db.txid = 2 then lsns := lsn :: !lsns);
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let _ = Heap_file.insert heap "committed" in
  commit db;
  db.txid <- 2;
  let _ = Heap_file.insert heap "doomed-1" in
  let _ = Heap_file.insert heap "doomed-2" in
  let undone = Recovery.rollback db.log db.pool ~txid:2 ~lsns:!lsns in
  ignore (Log_manager.append db.log (Log_record.Abort { txid = 2 }));
  check Alcotest.bool "updates undone" true (undone > 0);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.int "only committed row remains" 1 (Heap_file.record_count heap2);
  (* crash + recover after the rollback must not resurrect anything *)
  crash db;
  ignore (recover db);
  let heap3 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.int "still one row after recovery" 1 (Heap_file.record_count heap3)

let test_checkpoint_truncates () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "checkpointed" in
  commit db;
  Recovery.checkpoint db.log db.pool;
  check Alcotest.int "log truncated" 0 (Log_manager.record_count db.log);
  check Alcotest.bool "LSNs stay monotonic across truncation" true
    (Int64.compare (Log_manager.tail_lsn db.log) 0L > 0);
  crash db;
  let report = recover db in
  check Alcotest.int "nothing to redo" 0 report.Recovery.redone;
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "data persisted by checkpoint" "checkpointed"
    (Heap_file.read heap2 rid)

let test_wal_rule_on_eviction () =
  (* with a tiny pool, evictions force page writes, which must force the log
     first; after a crash the log must contain enough to redo *)
  let pool = Buffer_pool.create ~capacity:3 (Pager.create_in_memory ~page_size:512 ()) in
  let log = Log_manager.create_in_memory () in
  let txid = ref 1 in
  Journal.install pool log ~current_txid:(fun () -> !txid);
  let heap = Heap_file.create pool in
  let rids = List.init 60 (fun i -> (i, Heap_file.insert heap (Printf.sprintf "row%03d" i))) in
  ignore (Log_manager.append log (Log_record.Commit { txid = 1 }));
  Log_manager.flush log;
  Buffer_pool.drop_cache pool;
  ignore (Recovery.run log pool);
  let heap2 = Heap_file.attach pool ~header_page:(Heap_file.header_page heap) in
  List.iter
    (fun (i, rid) ->
      check Alcotest.string "row recovered" (Printf.sprintf "row%03d" i)
        (Heap_file.read heap2 rid))
    rids

let test_recover_btree () =
  let db = make_db () in
  db.txid <- 1;
  let tree = Rx_btree.Btree.create db.pool in
  for i = 0 to 199 do
    Rx_btree.Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  commit db;
  db.txid <- 2;
  for i = 200 to 249 do
    Rx_btree.Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  crash db;
  ignore (recover db);
  let tree2 = Rx_btree.Btree.attach db.pool ~meta_page:(Rx_btree.Btree.meta_page tree) in
  Rx_btree.Btree.check_invariants tree2;
  check Alcotest.int "only committed keys" 200 (Rx_btree.Btree.entry_count tree2);
  check (Alcotest.option Alcotest.string) "committed key present" (Some "150")
    (Rx_btree.Btree.find tree2 "key0150");
  check (Alcotest.option Alcotest.string) "uncommitted key gone" None
    (Rx_btree.Btree.find tree2 "key0220")

(* --- group commit and write batching --- *)

let cval metrics name = Rx_obs.Metrics.(value (counter metrics name))

let test_group_commit_single () =
  let path = Filename.temp_file "rx_wal_gc" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  let lsns =
    List.init 5 (fun i -> Log_manager.append log (Log_record.Commit { txid = i }))
  in
  let last = List.nth lsns 4 in
  Log_manager.group_commit log ~wait:false last;
  check Alcotest.bool "all records durable" true
    (Int64.compare (Log_manager.durable_lsn log) last >= 0);
  check Alcotest.int "one group, one fsync" 1
    (cval metrics "wal.group_commit.fsyncs");
  (* an already-durable target neither leads a group nor fsyncs again *)
  Log_manager.group_commit log ~wait:false last;
  check Alcotest.int "no extra fsync for durable lsn" 1
    (cval metrics "wal.group_commit.fsyncs");
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" 5 (Log_manager.record_count log2);
  Sys.remove path

let test_group_commit_absorbs () =
  let path = Filename.temp_file "rx_wal_gc" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  Log_manager.set_commit_window log 5000;
  let committers = 8 in
  let threads =
    List.init committers (fun i ->
        Thread.create
          (fun () ->
            let lsn = Log_manager.append log (Log_record.Commit { txid = i }) in
            Log_manager.group_commit log lsn)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "every record durable" committers
    (Log_manager.record_count log);
  let groups = cval metrics "wal.group_commit.groups" in
  let absorbed = cval metrics "wal.group_commit.absorbed" in
  check Alcotest.bool "followers absorbed into a leader's flush" true
    (absorbed >= 1 && groups + absorbed = committers);
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" committers
    (Log_manager.record_count log2);
  Sys.remove path

let test_write_buffer_spills_without_fsync () =
  let path = Filename.temp_file "rx_wal_spill" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  Log_manager.set_buffer_limit log 64;
  let big = String.make 200 'x' in
  let lsns =
    List.init 4 (fun i ->
        Log_manager.append log
          (Log_record.Update
             { txid = i; page_no = i; off = 0; before = big; after = big }))
  in
  (* staged bytes exceeded the limit, so appends wrote to the file... *)
  check Alcotest.bool "spill wrote to the file" true
    ((Unix.stat path).Unix.st_size > 200);
  (* ...but without forcing durability: no fsync yet *)
  check Alcotest.int "no fsync before flush" 0 (cval metrics "wal.forced_syncs");
  check Alcotest.bool "spilled records not yet durable" true
    (Int64.compare (Log_manager.durable_lsn log) (List.nth lsns 3) < 0);
  Log_manager.flush log;
  check Alcotest.int "flush forces one fsync" 1
    (cval metrics "wal.forced_syncs");
  check Alcotest.bool "everything durable after flush" true
    (Int64.compare (Log_manager.durable_lsn log) (List.nth lsns 3) >= 0);
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" 4 (Log_manager.record_count log2);
  Sys.remove path

let () =
  Alcotest.run "rx_wal"
    [
      ( "log_manager",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "file backend" `Quick test_log_file_backend;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "single committer" `Quick test_group_commit_single;
          Alcotest.test_case "concurrent committers absorb" `Quick
            test_group_commit_absorbs;
          Alcotest.test_case "write buffer spills without fsync" `Quick
            test_write_buffer_spills_without_fsync;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed survives crash" `Quick test_recover_committed;
          Alcotest.test_case "uncommitted rolled back" `Quick test_recover_uncommitted_rolled_back;
          Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "online rollback" `Quick test_online_rollback;
          Alcotest.test_case "checkpoint truncates log" `Quick test_checkpoint_truncates;
          Alcotest.test_case "WAL rule on eviction" `Quick test_wal_rule_on_eviction;
          Alcotest.test_case "btree splits recover" `Quick test_recover_btree;
        ] );
    ]
