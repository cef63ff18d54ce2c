(* Prepared-query plan cache: hit/miss/invalidation accounting, DDL epoch
   bumps (index create/drop), namespace-environment keying, LRU eviction,
   staged [DROP XML INDEX] under a transaction, typed pool exhaustion, and
   the CLI counter surface. *)

open Systemrx
open Rx_relational
module Metrics = Rx_obs.Metrics

let cval db name = Metrics.value (Metrics.counter (Database.metrics db) name)

let doc i =
  Printf.sprintf "<book><title>Book %d</title><price>%d.5</price></book>" i i

let setup ndocs =
  let db = Database.create_in_memory () in
  ignore
    (Database.create_table db ~name:"books"
       ~columns:[ ("isbn", Value.T_varchar); ("doc", Value.T_xml) ]);
  for i = 1 to ndocs do
    ignore
      (Database.insert db ~table:"books"
         ~values:[ ("isbn", Value.Varchar (string_of_int i)) ]
         ~xml:[ ("doc", doc i) ]
         ())
  done;
  db

let run db xpath = Database.run db ~table:"books" ~column:"doc" ~xpath

(* --- hit/miss accounting --- *)

let test_hits_and_misses () =
  let db = setup 4 in
  let m0 = cval db "plancache.misses" and h0 = cval db "plancache.hits" in
  let r1 = run db "/book/title" in
  Alcotest.(check int) "first run misses" (m0 + 1) (cval db "plancache.misses");
  let r2 = run db "/book/title" in
  let r3 = run db "/book/title" in
  Alcotest.(check int) "reruns hit" (h0 + 2) (cval db "plancache.hits");
  Alcotest.(check int) "no further misses" (m0 + 1) (cval db "plancache.misses");
  Alcotest.(check int) "same matches" (List.length r1.Database.matches)
    (List.length r2.Database.matches);
  Alcotest.(check int) "same matches again" 4 (List.length r3.Database.matches)

let test_prepare_and_run_prepared () =
  let db = setup 3 in
  let p = Database.prepare db ~table:"books" ~column:"doc" ~xpath:"/book/price" in
  Alcotest.(check string) "table" "books" (Database.Prepared.table p);
  Alcotest.(check string) "xpath" "/book/price" (Database.Prepared.xpath p);
  Alcotest.(check bool) "full scan" false
    (Database.Prepared.plan p).Database.uses_index;
  let h0 = cval db "plancache.hits" in
  let r = Database.run_prepared db p in
  Alcotest.(check int) "3 prices" 3 (List.length r.Database.matches);
  (* run_prepared with a current handle executes directly, no cache probe *)
  Alcotest.(check int) "no extra hit" h0 (cval db "plancache.hits");
  (* bare run of the same query hits the entry prepare installed *)
  ignore (run db "/book/price");
  Alcotest.(check int) "run hits prepare's entry" (h0 + 1)
    (cval db "plancache.hits")

(* --- DDL invalidation --- *)

let test_index_ddl_invalidates () =
  let db = setup 5 in
  let xpath = "/book[price < 3]/title" in
  let r1 = run db xpath in
  Alcotest.(check bool) "no index yet" false r1.Database.plan.Database.uses_index;
  ignore (run db xpath) (* warm the cache *);
  let i0 = cval db "plancache.invalidations" in
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"price"
          ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double));
  let r2 = run db xpath in
  Alcotest.(check int) "stale entry recompiled" (i0 + 1)
    (cval db "plancache.invalidations");
  Alcotest.(check bool) "index picked up" true r2.Database.plan.Database.uses_index;
  Alcotest.(check int) "same answer" (List.length r1.Database.matches)
    (List.length r2.Database.matches);
  (* dropping the index flips the cached plan back to a full scan *)
  Database.Index.drop db ~table:"books" ~column:"doc" ~name:"price";
  let r3 = run db xpath in
  Alcotest.(check int) "drop recompiles too" (i0 + 2)
    (cval db "plancache.invalidations");
  Alcotest.(check bool) "back to full scan" false
    r3.Database.plan.Database.uses_index;
  Alcotest.(check int) "same answer after drop" (List.length r1.Database.matches)
    (List.length r3.Database.matches)

let test_stale_prepared_handle_recompiles () =
  let db = setup 4 in
  let xpath = "/book[price < 100]/title" in
  let p = Database.prepare db ~table:"books" ~column:"doc" ~xpath in
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"price"
          ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double));
  (* the old handle transparently re-prepares against the new catalog *)
  let r = Database.run_prepared db p in
  Alcotest.(check bool) "re-prepared with index" true
    r.Database.plan.Database.uses_index;
  Alcotest.(check int) "all match" 4 (List.length r.Database.matches)

let test_drop_index_errors () =
  let db = setup 1 in
  (* unknown names across the lifecycle API raise the typed error that
     maps to exit code / wire status 1 *)
  Alcotest.check_raises "unknown index"
    (Database.Unknown_index { kind = `Index; name = "nope" }) (fun () ->
      Database.Index.drop db ~table:"books" ~column:"doc" ~name:"nope");
  Alcotest.check_raises "unknown table"
    (Database.Unknown_index { kind = `Table; name = "nosuch" }) (fun () ->
      ignore (Database.Index.list db ~table:"nosuch" ~column:"doc"));
  Alcotest.check_raises "unknown column"
    (Database.Unknown_index { kind = `Column; name = "nocol" }) (fun () ->
      ignore (Database.Index.status db ~table:"books" ~column:"nocol" ~name:"price"))

(* --- namespace environments key separately --- *)

let test_ns_env_keying () =
  let db = Database.create_in_memory () in
  ignore
    (Database.create_table db ~name:"books" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.insert db ~table:"books"
       ~xml:
         [
           ( "doc",
             "<b:book xmlns:b='urn:one'><b:title>X</b:title></b:book>" );
         ]
       ());
  let m0 = cval db "plancache.misses" and h0 = cval db "plancache.hits" in
  let r1 =
    Database.run db ~ns_env:[ ("p", "urn:one") ] ~table:"books" ~column:"doc"
      ~xpath:"/p:book/p:title"
  in
  let r2 =
    Database.run db ~ns_env:[ ("p", "urn:two") ] ~table:"books" ~column:"doc"
      ~xpath:"/p:book/p:title"
  in
  Alcotest.(check int) "distinct ns_env = distinct entries" (m0 + 2)
    (cval db "plancache.misses");
  Alcotest.(check int) "urn:one matches" 1 (List.length r1.Database.matches);
  Alcotest.(check int) "urn:two does not" 0 (List.length r2.Database.matches);
  (* binding order is canonicalized, so a reordered env is the same key *)
  ignore
    (Database.run db
       ~ns_env:[ ("q", "urn:zzz"); ("p", "urn:one") ]
       ~table:"books" ~column:"doc" ~xpath:"/p:book/p:title");
  ignore
    (Database.run db
       ~ns_env:[ ("p", "urn:one"); ("q", "urn:zzz") ]
       ~table:"books" ~column:"doc" ~xpath:"/p:book/p:title");
  Alcotest.(check int) "reordered env hits" (h0 + 1) (cval db "plancache.hits")

(* --- LRU eviction --- *)

(* the cache holds 128 plans *)
let test_lru_eviction () =
  let db = setup 2 in
  let m0 = cval db "plancache.misses" in
  let query i = Printf.sprintf "/book[price < %d]/title" i in
  (* one distinct query more than the cache holds evicts the first *)
  for i = 0 to 128 do
    ignore (run db (query i))
  done;
  Alcotest.(check int) "129 compiles" (m0 + 129) (cval db "plancache.misses");
  ignore (run db (query 0));
  Alcotest.(check int) "evicted entry recompiles" (m0 + 130)
    (cval db "plancache.misses");
  ignore (run db (query 128));
  Alcotest.(check int) "recent entry survives" (m0 + 130)
    (cval db "plancache.misses")

(* --- staged DROP XML INDEX under a transaction --- *)

let build_price db =
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"price"
          ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double))

let live_indexes db =
  List.map
    (fun i -> i.Database.Index.ix_name)
    (Database.Index.list db ~table:"books" ~column:"doc")

let test_staged_drop_in_txn () =
  let db = setup 4 in
  let xpath = "/book[price < 100]/title" in
  build_price db;
  (* warm the cache with the index-using plan *)
  let r0 = run db xpath in
  Alcotest.(check bool) "indexed before" true r0.Database.plan.Database.uses_index;
  let txn = Database.begin_txn db in
  Database.Index.drop ~txn db ~table:"books" ~column:"doc" ~name:"price";
  (* the staging transaction's own query must not be served the cached
     plan compiled against the index it just dropped *)
  let rt = Database.run ~txn db ~table:"books" ~column:"doc" ~xpath in
  Alcotest.(check bool) "txn query does not use the index" false
    rt.Database.plan.Database.uses_index;
  Alcotest.(check int) "txn query correct" 4 (List.length rt.Database.matches);
  (* other sessions still see (and plan with) the index until commit *)
  let rc = run db xpath in
  Alcotest.(check bool) "others still indexed" true
    rc.Database.plan.Database.uses_index;
  Database.commit db txn;
  Alcotest.(check (list string)) "index gone after commit" []
    (live_indexes db);
  let ra = run db xpath in
  Alcotest.(check bool) "full scan after commit" false
    ra.Database.plan.Database.uses_index;
  Alcotest.(check int) "still correct" 4 (List.length ra.Database.matches)

let test_staged_drop_rollback () =
  let db = setup 2 in
  build_price db;
  let txn = Database.begin_txn db in
  Database.Index.drop ~txn db ~table:"books" ~column:"doc" ~name:"price";
  Database.rollback db txn;
  Alcotest.(check (list string)) "rollback keeps the index" [ "price" ]
    (live_indexes db);
  let r = run db "/book[price < 100]/title" in
  Alcotest.(check bool) "still planned" true r.Database.plan.Database.uses_index

(* --- typed pool exhaustion --- *)

let test_pool_exhausted_typed () =
  let open Rx_storage in
  let pool = Buffer_pool.create ~capacity:2 (Pager.create_in_memory ()) in
  let p1 = Buffer_pool.alloc pool Page.Heap in
  let p2 = Buffer_pool.alloc pool Page.Heap in
  let p3 = Buffer_pool.alloc pool Page.Heap in
  (* hold pins on both frames, then demand a third page *)
  Buffer_pool.with_page pool p1 (fun _ ->
      Buffer_pool.with_page pool p2 (fun _ ->
          match Buffer_pool.with_page pool p3 (fun _ -> ()) with
          | () -> Alcotest.fail "expected Pool_exhausted"
          | exception Buffer_pool.Pool_exhausted { page_no; capacity } ->
              Alcotest.(check int) "page" p3 page_no;
              Alcotest.(check int) "capacity" 2 capacity))

(* --- CLI: rx stats --json reports the new counters --- *)

let rx_binary =
  let candidates = [ "../bin/rx.exe"; "_build/default/bin/rx.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "rx.exe not found; build bin/ first"

let expect_ok args =
  let out = Filename.temp_file "rxplan" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" rx_binary
      (String.concat " " (List.map Filename.quote args))
      out
  in
  let status = Sys.command cmd in
  let ic = open_in_bin out in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  if status <> 0 then Alcotest.failf "command failed (%d): %s" status output;
  String.trim output

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_cli_stats_json () =
  let dir = Filename.temp_file "rxplandb" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      ignore (expect_ok [ "init"; "--db"; dir ]);
      ignore
        (expect_ok
           [ "create-table"; "--db"; dir; "--table"; "b"; "--columns"; "doc:xml" ]);
      ignore
        (expect_ok
           [ "insert"; "--db"; dir; "--table"; "b"; "--xml"; "doc=<a><b>1</b></a>" ]);
      ignore
        (expect_ok
           [ "query"; "--db"; dir; "--table"; "b"; "--column"; "doc"; "--xpath";
             "/a/b" ]);
      let json = expect_ok [ "stats"; "--db"; dir; "--json" ] in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " present") true (contains json name))
        [
          "plancache.hits"; "plancache.misses"; "plancache.invalidations";
          "bufpool.readahead.batches"; "bufpool.readahead.pages";
          "bufpool.readahead.wasted";
        ])

let () =
  Alcotest.run "plan_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "hits and misses" `Quick test_hits_and_misses;
          Alcotest.test_case "prepare / run_prepared" `Quick
            test_prepare_and_run_prepared;
          Alcotest.test_case "ns_env keying" `Quick test_ns_env_keying;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "index DDL bumps epoch" `Quick
            test_index_ddl_invalidates;
          Alcotest.test_case "stale handle recompiles" `Quick
            test_stale_prepared_handle_recompiles;
          Alcotest.test_case "drop-index errors" `Quick test_drop_index_errors;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "staged drop applies at commit" `Quick
            test_staged_drop_in_txn;
          Alcotest.test_case "staged drop rolls back" `Quick
            test_staged_drop_rollback;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "Pool_exhausted is typed" `Quick
            test_pool_exhausted_typed;
        ] );
      ( "cli",
        [ Alcotest.test_case "stats --json counters" `Quick test_cli_stats_json ] );
    ]
