(* Explicit transactions through the Database facade: snapshot-isolated
   reads, staged writes with deferred index maintenance, rollback hygiene,
   write-write conflicts, deadlock handling and crash recovery of
   uncommitted transactions. *)

open Systemrx
open Rx_relational

let check = Alcotest.check

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let product ~name ~price =
  Printf.sprintf "<Product><Name>%s</Name><Price>%g</Price></Product>" name price

let make_db ?(with_index = true) ?(n = 5) () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"products"
      ~columns:[ ("sku", Value.T_varchar); ("doc", Value.T_xml) ]
  in
  if with_index then
    ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"price"
      ~path:"/Product/Price" ~key_type:Rx_xindex.Index_def.K_double));
  for i = 1 to n do
    ignore
      (Database.insert db ~table:"products"
         ~values:[ ("sku", Value.Varchar (Printf.sprintf "S%03d" i)) ]
         ~xml:
           [
             ( "doc",
               product
                 ~name:(Printf.sprintf "item-%d" i)
                 ~price:(float_of_int (i * 10)) );
           ]
         ())
  done;
  db

let serialized ?txn db ~xpath =
  let r = Database.run ?txn db ~table:"products" ~column:"doc" ~xpath in
  List.map r.Database.serialize r.Database.matches

let name_node ?txn db ~docid =
  let r = Database.run ?txn db ~table:"products" ~column:"doc" ~xpath:"/Product/Name" in
  match List.filter (fun m -> m.Database.docid = docid) r.Database.matches with
  | m :: _ -> m.Database.node
  | [] -> Alcotest.failf "no /Product/Name in DocID %d" docid

let expect_no_document f =
  try
    ignore (f ());
    Alcotest.fail "document should not be visible"
  with Invalid_argument msg ->
    check Alcotest.bool "error names the document" true
      (contains ~needle:"no document" msg)

(* the acceptance scenario: A begins, B inserts and commits, A's queries
   keep seeing the begin-time snapshot, a fresh auto-commit read sees B *)
let test_snapshot_isolation () =
  let db = make_db () in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  check Alcotest.bool "distinct ids" true (Database.txn_id a <> Database.txn_id b);
  let d =
    Database.insert ~txn:b db ~table:"products"
      ~values:[ ("sku", Value.Varchar "NEW") ]
      ~xml:[ ("doc", product ~name:"brand-new" ~price:999.) ]
      ()
  in
  let xpath = "/Product[Price > 500]/Name" in
  check (Alcotest.list Alcotest.string) "B reads its own staged insert"
    [ "<Name>brand-new</Name>" ]
    (serialized ~txn:b db ~xpath);
  let r = Database.run ~txn:b db ~table:"products" ~column:"doc" ~xpath in
  check Alcotest.string "snapshot reads take the index plan"
    ("SNAPSHOT("
    ^ (Database.explain db ~table:"products" ~column:"doc" ~xpath)
        .Database.description
    ^ ")")
    r.Database.plan.Database.description;
  check (Alcotest.list Alcotest.string) "A blind before B commits" []
    (serialized ~txn:a db ~xpath);
  Database.commit db b;
  check Alcotest.bool "b finished" false (Database.txn_active b);
  check (Alcotest.list Alcotest.string) "A still blind after B commits" []
    (serialized ~txn:a db ~xpath);
  expect_no_document (fun () ->
      Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:d);
  (* outside any transaction the committed insert is current state *)
  check (Alcotest.list Alcotest.string) "fresh auto-commit read sees B's doc"
    [ "<Name>brand-new</Name>" ]
    (serialized db ~xpath);
  check Alcotest.string "get committed doc"
    (product ~name:"brand-new" ~price:999.)
    (Database.document db ~table:"products" ~column:"doc" ~docid:d);
  Database.commit db a;
  check Alcotest.int "six documents current" 6 (Database.stats db).Database.documents

(* an indexed point query inside a transaction probes the value index
   and re-evaluates only the candidates; a transaction that staged a DROP
   XML INDEX on the column scans its whole snapshot instead, with the
   same answers *)
let test_snapshot_index_fallbacks () =
  let db = make_db ~n:40 () in
  let value name =
    Rx_obs.Metrics.value (Rx_obs.Metrics.counter (Database.metrics db) name)
  in
  let xpath = "/Product[Price = 130]/Name" in
  let a = Database.begin_txn db in
  let scanned0 = value "exec.docs_scanned"
  and cands0 = value "exec.index_candidates" in
  let r = Database.run ~txn:a db ~table:"products" ~column:"doc" ~xpath in
  let scanned = value "exec.docs_scanned" - scanned0
  and cands = value "exec.index_candidates" - cands0 in
  check Alcotest.bool "index plan" true r.Database.plan.Database.uses_index;
  check Alcotest.bool "candidates probed" true (cands >= 1);
  check Alcotest.bool "scans at most the candidates" true (scanned <= cands);
  check (Alcotest.list Alcotest.string) "indexed answer" [ "<Name>item-13</Name>" ]
    (List.map r.Database.serialize r.Database.matches);
  let c = Database.begin_txn db in
  Database.Index.drop ~txn:c db ~table:"products" ~column:"doc" ~name:"price";
  let rc = Database.run ~txn:c db ~table:"products" ~column:"doc" ~xpath in
  check Alcotest.string "staged drop scans the snapshot"
    "SNAPSHOT-SCAN(QuickXScan)" rc.Database.plan.Database.description;
  check (Alcotest.list Alcotest.string) "same answer" [ "<Name>item-13</Name>" ]
    (List.map rc.Database.serialize rc.Database.matches);
  Database.rollback db c;
  Database.commit db a

(* auto-commit writers retain pre-images for live snapshots: readers never
   block and never see in-flight current-state changes *)
let test_snapshot_pre_images () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let node1 = name_node db ~docid:1 in
  Database.update_xml_text db ~table:"products" ~column:"doc" ~docid:1 node1
    "renamed";
  Database.delete db ~table:"products" ~docid:2;
  check Alcotest.string "A sees the pre-update image"
    (product ~name:"item-1" ~price:10.)
    (Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:1);
  check Alcotest.string "A sees the deleted document"
    (product ~name:"item-2" ~price:20.)
    (Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:2);
  check Alcotest.int "A's scan counts both documents" 2
    (List.length (serialized ~txn:a db ~xpath:"/Product/Name"));
  check Alcotest.bool "current state is updated" true
    (contains ~needle:"renamed"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1));
  expect_no_document (fun () ->
      Database.document db ~table:"products" ~column:"doc" ~docid:2);
  Database.commit db a;
  (* retained versions are purged once the last transaction ends; the
     current state is untouched *)
  check Alcotest.bool "current state survives purge" true
    (contains ~needle:"renamed"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1))

(* a rolled-back multi-statement transaction leaves stats, value indexes
   and query results exactly as before it began *)
let test_rollback_no_trace () =
  let db = make_db () in
  (* warm-up cycle so the per-column staging store exists before the
     baseline is captured *)
  let w = Database.begin_txn db in
  ignore
    (Database.insert ~txn:w db ~table:"products"
       ~xml:[ ("doc", product ~name:"warmup" ~price:1.) ]
       ());
  Database.rollback db w;
  let before = Database.stats db in
  let xpath = "/Product[Price > 20]/Name" in
  let before_q = serialized db ~xpath in
  let tx = Database.begin_txn db in
  ignore
    (Database.insert ~txn:tx db ~table:"products"
       ~values:[ ("sku", Value.Varchar "TMP") ]
       ~xml:[ ("doc", product ~name:"staged" ~price:500.) ]
       ());
  let node1 = name_node ~txn:tx db ~docid:1 in
  Database.update_xml_text ~txn:tx db ~table:"products" ~column:"doc" ~docid:1
    node1 "doomed-rename";
  Database.delete ~txn:tx db ~table:"products" ~docid:3;
  check Alcotest.int "txn's own view reflects all three statements"
    (List.length before_q) (* item-3..5 minus deleted 3, plus staged 500 *)
    (List.length (serialized ~txn:tx db ~xpath));
  Database.rollback db tx;
  check Alcotest.bool "rollback closes the txn" false (Database.txn_active tx);
  Database.rollback db tx (* idempotent *);
  let after = Database.stats db in
  check Alcotest.int "tables" before.Database.tables after.Database.tables;
  check Alcotest.int "documents" before.Database.documents after.Database.documents;
  check Alcotest.int "xml_records" before.Database.xml_records
    after.Database.xml_records;
  check Alcotest.int "node_index_entries" before.Database.node_index_entries
    after.Database.node_index_entries;
  check Alcotest.int "value_index_entries" before.Database.value_index_entries
    after.Database.value_index_entries;
  check Alcotest.int "data_pages" before.Database.data_pages
    after.Database.data_pages;
  check (Alcotest.list Alcotest.string) "query results identical" before_q
    (serialized db ~xpath);
  let r = Database.run db ~table:"products" ~column:"doc" ~xpath in
  check Alcotest.bool "value index still drives the plan" true
    r.Database.plan.Database.uses_index

(* A multi-threaded host's transaction: begin and stage under
   [exclusively], then [commit]. Plain threads need no other locking, and
   a failed body rolled back inside the critical section leaves no
   trace. *)
let locked_txn db f =
  let txn, v =
    Database.exclusively db (fun () ->
        let txn = Database.begin_txn db in
        match f txn with
        | v -> (txn, v)
        | exception e ->
            Database.rollback db txn;
            raise e)
  in
  Database.commit db txn;
  v

let test_locked_txn () =
  let db = make_db () in
  let before = (Database.stats db).Database.documents in
  let d =
    locked_txn db (fun txn ->
        Database.insert ~txn db ~table:"products"
          ~xml:[ ("doc", product ~name:"combinator" ~price:123.) ]
          ())
  in
  check Alcotest.int "insert committed" (before + 1)
    (Database.stats db).Database.documents;
  check Alcotest.bool "document readable" true
    (contains ~needle:"combinator"
       (Database.document db ~table:"products" ~column:"doc" ~docid:d));
  (* exception inside the body rolls everything back and re-raises *)
  (match
     locked_txn db (fun txn ->
         ignore
           (Database.insert ~txn db ~table:"products"
              ~xml:[ ("doc", product ~name:"doomed" ~price:1.) ]
              ());
         failwith "boom")
   with
  | () -> Alcotest.fail "expected the body's exception"
  | exception Failure msg -> check Alcotest.string "exception re-raised" "boom" msg);
  check Alcotest.int "failed body left no trace" (before + 1)
    (Database.stats db).Database.documents;
  (* concurrent callers: the engine lock serializes the bodies and every
     commit, so plain threads need no external locking *)
  let workers = 8 and per = 5 in
  let errors = Atomic.make 0 in
  let threads =
    List.init workers (fun w ->
        Thread.create
          (fun () ->
            try
              for i = 1 to per do
                ignore
                  (locked_txn db (fun txn ->
                       Database.insert ~txn db ~table:"products"
                         ~xml:
                           [
                             ( "doc",
                               product
                                 ~name:(Printf.sprintf "w%d-%d" w i)
                                 ~price:(float_of_int (w + i)) );
                           ]
                         ()))
              done
            with _ -> Atomic.incr errors)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "no worker failed" 0 (Atomic.get errors);
  check Alcotest.int "all concurrent commits applied"
    (before + 1 + (workers * per))
    (Database.stats db).Database.documents

(* exclusively_async: the apply under the engine lock, the durability
   wait handed back to run outside it — the building block the network
   server uses to overlap fsyncs across sessions. [commit] nests inside
   the critical section without deadlocking. *)
let test_exclusively_async () =
  let db = make_db ~with_index:false ~n:1 () in
  let (), wait =
    Database.exclusively_async db (fun () ->
        let txn = Database.begin_txn db in
        ignore
          (Database.insert ~txn db ~table:"products"
             ~xml:[ ("doc", product ~name:"async" ~price:5.) ]
             ());
        Database.commit db txn)
  in
  wait ();
  check Alcotest.int "applied and durable" 2
    (Database.stats db).Database.documents;
  (* nested [exclusively] runs inline on the holding thread *)
  check Alcotest.int "reentrant" 7
    (Database.exclusively db (fun () -> Database.exclusively db (fun () -> 7)))

(* first-updater-wins: a document updated by a transaction that committed
   after this transaction began cannot be written again by it *)
let test_write_write_conflict () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let node1 = name_node db ~docid:1 in
  Database.update_xml_text db ~table:"products" ~column:"doc" ~docid:1 node1
    "other-session";
  (try
     Database.update_xml_text ~txn:a db ~table:"products" ~column:"doc" ~docid:1
       node1 "mine";
     Alcotest.fail "expected a write-write conflict"
   with Failure msg ->
     check Alcotest.bool "conflict message" true
       (contains ~needle:"write-write conflict" msg));
  (* the statement failed but the transaction stays open *)
  check Alcotest.bool "txn still open" true (Database.txn_active a);
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  Database.rollback db a;
  check Alcotest.bool "losing update never applied" true
    (contains ~needle:"other-session"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1))

(* two writers crossing: the blocked-without-cycle side raises Busy and
   stays open; the side that closes the cycle is rolled back as the
   (youngest) deadlock victim; the survivor retries and commits *)
let test_deadlock_wound_victim () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  Database.delete ~txn:a db ~table:"products" ~docid:1;
  Database.delete ~txn:b db ~table:"products" ~docid:2;
  (try
     Database.delete ~txn:a db ~table:"products" ~docid:2;
     Alcotest.fail "A should block on B's lock"
   with Database.Busy { txid; blockers } ->
     check Alcotest.int "busy reports A" (Database.txn_id a) txid;
     check (Alcotest.list Alcotest.int) "blocked by B" [ Database.txn_id b ]
       blockers);
  check Alcotest.bool "A still open after Busy" true (Database.txn_active a);
  (try
     Database.delete ~txn:b db ~table:"products" ~docid:1;
     Alcotest.fail "B should close the waits-for cycle"
   with Rx_txn.Lock_manager.Deadlock { victim; cycle } ->
     check Alcotest.int "victim is the youngest" (Database.txn_id b) victim;
     check (Alcotest.list Alcotest.int) "cycle members"
       [ Database.txn_id a; Database.txn_id b ]
       (List.sort_uniq compare cycle));
  check Alcotest.bool "victim rolled back" false (Database.txn_active b);
  (* B's release promoted A's queued request: the retry goes through *)
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  Database.commit db a;
  check Alcotest.int "both documents deleted by A" 0
    (Database.stats db).Database.documents;
  check Alcotest.bool "B's staged delete discarded with the victim" true
    (Database.fetch_row db ~table:"products" ~docid:2 = None)

(* deadlock / wait counters surface in the database's metric registry *)
let test_txn_counters () =
  let db = make_db ~with_index:false ~n:2 () in
  let value name =
    match List.assoc_opt name (Rx_obs.Metrics.snapshot (Database.metrics db)) with
    | Some (Rx_obs.Metrics.Counter v) -> v
    | Some _ -> Alcotest.failf "%s is not a counter" name
    | None -> Alcotest.failf "counter %s not registered" name
  in
  check Alcotest.int "txn.begin starts at 0" 0 (value "txn.begin");
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  Database.delete ~txn:a db ~table:"products" ~docid:1;
  Database.delete ~txn:b db ~table:"products" ~docid:2;
  (try Database.delete ~txn:a db ~table:"products" ~docid:2
   with Database.Busy _ -> ());
  (try Database.delete ~txn:b db ~table:"products" ~docid:1
   with Rx_txn.Lock_manager.Deadlock _ -> ());
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  (* txn.commit counts every transaction, the set-up's autocommit inserts
     included: A's commit is one more *)
  let commits = value "txn.commit" in
  Database.commit db a;
  check Alcotest.bool "txn.begin counted" true (value "txn.begin" >= 2);
  check Alcotest.int "txn.commit counted" (commits + 1) (value "txn.commit");
  check Alcotest.bool "txn.abort counted (victim)" true (value "txn.abort" >= 1);
  check Alcotest.bool "lock.wait counted" true (value "lock.wait" >= 2);
  check Alcotest.bool "lock.deadlock counted" true (value "lock.deadlock" >= 1)

(* crash with a multi-statement transaction in flight: reopening the
   directory discards it while a committed sibling transaction survives *)
let with_temp_dir f =
  let dir = Filename.temp_file "rxdbtxn" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* explicit commits fire the auto-checkpoint trigger too, so a stream of
   explicit-transaction writes keeps truncating the log *)
let test_commit_auto_checkpoint () =
  with_temp_dir (fun dir ->
      let config =
        { Database.default_config with checkpoint_wal_bytes = 32 * 1024 }
      in
      let db = Database.open_dir ~config dir in
      let _ =
        Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]
      in
      let auto () =
        Rx_obs.Metrics.value
          (Rx_obs.Metrics.counter (Database.metrics db) "ckpt.auto")
      in
      let auto0 = auto () in
      let records () = (Database.verify db).Database.wal_records in
      let shrank = ref false in
      for i = 1 to 200 do
        let before = records () in
        let txn = Database.begin_txn db in
        ignore
          (Database.insert ~txn db ~table:"t"
             ~xml:[ ("doc", Printf.sprintf "<a><b>%d</b><c>%s</c></a>" i (String.make 200 'x')) ]
             ());
        Database.commit db txn;
        if records () < before then shrank := true
      done;
      check Alcotest.bool "ckpt.auto bumped" true (auto () > auto0);
      check Alcotest.bool "log record count shrank" true !shrank;
      check Alcotest.int "every row kept" 200 (Database.row_count db ~table:"t");
      Database.close db)

let test_mid_txn_crash_recovery () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let _ =
        Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]
      in
      let d0 = Database.insert db ~table:"t" ~xml:[ ("doc", "<a><b>base</b></a>") ] () in
      Database.checkpoint db;
      (* committed sibling transaction *)
      let c = Database.begin_txn db in
      let d1 =
        Database.insert ~txn:c db ~table:"t" ~xml:[ ("doc", "<a><b>one</b></a>") ] ()
      in
      let d2 =
        Database.insert ~txn:c db ~table:"t" ~xml:[ ("doc", "<a><b>two</b></a>") ] ()
      in
      Database.commit db c;
      (* multi-statement transaction left open at the "crash" *)
      let u = Database.begin_txn db in
      let d3 =
        Database.insert ~txn:u db ~table:"t" ~xml:[ ("doc", "<a><b>lost</b></a>") ] ()
      in
      Database.delete ~txn:u db ~table:"t" ~docid:d0;
      check Alcotest.bool "uncommitted txn open at crash" true
        (Database.txn_active u);
      (* crash: abandon the handle — no close, no checkpoint *)
      let db2 = Database.open_dir dir in
      check Alcotest.int "committed rows survive" 3 (Database.row_count db2 ~table:"t");
      check Alcotest.string "pre-crash doc intact (uncommitted delete undone)"
        "<a><b>base</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d0);
      check Alcotest.string "committed sibling insert 1" "<a><b>one</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d1);
      check Alcotest.string "committed sibling insert 2" "<a><b>two</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d2);
      check Alcotest.bool "uncommitted insert discarded" true
        (Database.fetch_row db2 ~table:"t" ~docid:d3 = None);
      Database.close db2)

(* --- one commit path: durability at the engine lock's exit --- *)

let counter db name =
  Rx_obs.Metrics.value (Rx_obs.Metrics.counter (Database.metrics db) name)

(* an autocommit statement inside [exclusively_async] appends its Commit
   record under the lock, but nothing is forced until the returned wait
   runs; [commit] nested in [exclusively] completes (no self-deadlock) *)
let test_durability_at_lock_exit () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let _ =
        Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]
      in
      ignore (Database.insert db ~table:"t" ~xml:[ ("doc", "<a><b>0</b></a>") ] ());
      let durable0 = Database.durable_lsn db in
      let syncs0 = counter db "wal.forced_syncs" in
      let docid, wait =
        Database.exclusively_async db (fun () ->
            Database.insert db ~table:"t" ~xml:[ ("doc", "<a><b>1</b></a>") ] ())
      in
      check Alcotest.bool "commit not yet durable" true
        (Int64.equal durable0 (Database.durable_lsn db));
      check Alcotest.int "no fsync under the lock" syncs0
        (counter db "wal.forced_syncs");
      wait ();
      check Alcotest.bool "durable after the wait" true
        (Int64.compare (Database.durable_lsn db) durable0 > 0);
      check Alcotest.int "one fsync" (syncs0 + 1) (counter db "wal.forced_syncs");
      check Alcotest.string "applied" "<a><b>1</b></a>"
        (Database.document db ~table:"t" ~column:"doc" ~docid);
      (* an explicit commit nested in [exclusively] *)
      Database.exclusively db (fun () ->
          let txn = Database.begin_txn db in
          ignore
            (Database.insert ~txn db ~table:"t" ~xml:[ ("doc", "<a><b>2</b></a>") ] ());
          Database.commit db txn);
      check Alcotest.int "nested commit applied" 3 (Database.row_count db ~table:"t");
      check Alcotest.bool "nested commit durable" true
        (Int64.equal (Database.durable_lsn db)
           (Database.repl_state db).Database.r_durable_lsn);
      Database.close db)

(* a transaction that writes nothing appends no Commit or Abort record and
   forces nothing *)
let test_read_only_logs_nothing () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let _ =
        Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]
      in
      let d = Database.insert db ~table:"t" ~xml:[ ("doc", "<a><b>1</b></a>") ] () in
      let records0 = counter db "wal.records" in
      let syncs0 = counter db "wal.forced_syncs" in
      let read txn =
        ignore (Database.run ~txn db ~table:"t" ~column:"doc" ~xpath:"/a/b");
        ignore (Database.document ~txn db ~table:"t" ~column:"doc" ~docid:d)
      in
      let a = Database.begin_txn db in
      read a;
      Database.commit db a;
      let b = Database.begin_txn db in
      read b;
      Database.rollback db b;
      check Alcotest.int "no WAL record" records0 (counter db "wal.records");
      check Alcotest.int "no fsync" syncs0 (counter db "wal.forced_syncs");
      Database.close db)

(* Failed autocommit statements leave no trace, however long the log.
   With an explicit transaction holding off every checkpoint, thousands
   of records pile up; a delete of a missing DocID, an insert whose second
   document is malformed and an insert with a mistyped row value are each
   refused before anything is written, so they log nothing and decode no
   frame. (A statement that fails after writing pages is undone from its
   own frames only; test_txn's "abort cost flat in log size" measures
   that.) *)
let test_failed_statements_leave_no_trace () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"t"
      ~columns:[ ("n", Value.T_int); ("a", Value.T_xml); ("b", Value.T_xml) ]
  in
  let snapshot () =
    let docs =
      List.concat_map
        (fun column ->
          (Database.run db ~table:"t" ~column ~xpath:"/*").Database.matches
          |> List.map (fun m ->
                 Database.document db ~table:"t" ~column ~docid:m.Database.docid))
        [ "a"; "b" ]
    in
    (docs, Database.row_count db ~table:"t", Database.stats db)
  in
  let doc i = Printf.sprintf "<r><k>%d</k><v>%s</v></r>" i (String.make 40 'v') in
  let refused f =
    match f () with
    | _ -> Alcotest.fail "the statement should fail"
    | exception (Invalid_argument _ | Rx_xml.Parser.Parse_error _) -> ()
  in
  let failed_statements () =
    let before = snapshot () in
    let frames0 = counter db "wal.frames_read" in
    let records0 = counter db "wal.records" in
    refused (fun () -> Database.delete db ~table:"t" ~docid:999_999);
    refused (fun () ->
        Database.insert db ~table:"t" ~xml:[ ("a", doc 0); ("b", "<broken>") ] ());
    refused (fun () ->
        Database.insert db ~table:"t"
          ~values:[ ("n", Value.Varchar "not a number") ]
          ~xml:[ ("a", doc 0) ]
          ());
    check Alcotest.int "nothing logged" records0 (counter db "wal.records");
    check Alcotest.int "no frame decoded" frames0 (counter db "wal.frames_read");
    check Alcotest.bool "store unchanged" true (snapshot () = before)
  in
  let reader = Database.begin_txn db in
  failed_statements ();
  for i = 1 to 300 do
    ignore (Database.insert db ~table:"t" ~xml:[ ("a", doc i); ("b", doc i) ] ())
  done;
  check Alcotest.bool "thousands of records in the log" true
    ((Database.verify db).Database.wal_records > 3000);
  failed_statements ();
  Database.rollback db reader

let () =
  Alcotest.run "database_txn"
    [
      ( "snapshot_isolation",
        [
          Alcotest.test_case "begin-time snapshot vs committed writer" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "auto-commit writers retain pre-images" `Quick
            test_snapshot_pre_images;
          Alcotest.test_case "index probe and staged-drop fallback" `Quick
            test_snapshot_index_fallbacks;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "rollback leaves no trace" `Quick
            test_rollback_no_trace;
          Alcotest.test_case "write-write conflict (first updater wins)" `Quick
            test_write_write_conflict;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "exclusively + commit threads" `Quick
            test_locked_txn;
          Alcotest.test_case "exclusively_async deferral" `Quick
            test_exclusively_async;
        ] );
      ( "commit_path",
        [
          Alcotest.test_case "durability at the lock's exit" `Quick
            test_durability_at_lock_exit;
          Alcotest.test_case "read-only txns log nothing" `Quick
            test_read_only_logs_nothing;
        ] );
      ( "locking",
        [
          Alcotest.test_case "deadlock wounds the youngest" `Quick
            test_deadlock_wound_victim;
          Alcotest.test_case "txn and lock counters" `Quick test_txn_counters;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "mid-transaction crash" `Quick
            test_mid_txn_crash_recovery;
          Alcotest.test_case "explicit commits auto-checkpoint" `Quick
            test_commit_auto_checkpoint;
          Alcotest.test_case "failed statements leave no trace" `Quick
            test_failed_statements_leave_no_trace;
        ] );
    ]
