(* Differential test for index-accelerated snapshot reads. Two databases
   run the same seeded program of autocommit writes and overlapping
   explicit transactions. One has value indexes on the queried paths, so
   its in-transaction queries probe them; the other has none, so it scans
   every snapshot-visible document. Every in-transaction query must
   answer byte-identically, in the same order, on both: embedded at
   parallelism 1 and 4, and over the wire inside BEGIN/COMMIT. The
   programs mix inserts, deletes, text updates, fragment inserts and node
   deletes, autocommit and staged; reader transactions, which stage
   nothing, must keep reading exactly their snapshot. *)

open Systemrx
open Rx_relational

let table = "items"
let column = "doc"

let item ~k ~v ~tag =
  Printf.sprintf "<item><k>%d</k><v>%d</v><t>%s</t></item>" k v tag

let make_db ~indexed ~parallelism =
  let config =
    { Database.default_config with parallelism; parallel_scan_min_pages = 0 }
  in
  let db = Database.create_in_memory ~config () in
  ignore (Database.create_table db ~name:table ~columns:[ (column, Value.T_xml) ]);
  if indexed then
    List.iter
      (fun (name, path) ->
        ignore
          (Database.Index.await
             (Database.Index.build db ~table ~column ~name ~path
                ~key_type:Rx_xindex.Index_def.K_double)))
      [ ("by_k", "/item/k"); ("by_v", "/item/v") ];
  db

(* [ix] has the value indexes, [sc] has none *)
type pair = { ix : Database.t; sc : Database.t }

let make_pair ~parallelism =
  {
    ix = make_db ~indexed:true ~parallelism;
    sc = make_db ~indexed:false ~parallelism;
  }

let point k = Printf.sprintf "/item[k = %d]/t" k
let below v = Printf.sprintf "/item[v < %d]/k" v
let at_least v = Printf.sprintf "/item[v >= %d]/t" v
let between lo hi = Printf.sprintf "/item[v > %d and v < %d]/t" lo hi

let answer ?txn db xpath =
  let r = Database.run ?txn db ~table ~column ~xpath in
  ( r.Database.plan.Database.description,
    List.map
      (fun m -> (m.Database.docid, r.Database.serialize m))
      r.Database.matches )

let show rows =
  String.concat "; " (List.map (fun (d, s) -> Printf.sprintf "%d:%s" d s) rows)

let fail_rows ~ctx xpath ~ix ~sc =
  Alcotest.failf "%s: %s differs\n  indexed:   [%s]\n  full scan: [%s]" ctx
    xpath (show ix) (show sc)

(* one query on both databases; returns the (agreed) rows and whether
   the indexed database probed an index *)
let compare_query ~ctx ?txns p xpath =
  let tix, tsc =
    match txns with Some (a, b) -> (Some a, Some b) | None -> (None, None)
  in
  let plan_ix, ix = answer ?txn:tix p.ix xpath in
  let plan_sc, sc = answer ?txn:tsc p.sc xpath in
  if ix <> sc then fail_rows ~ctx xpath ~ix ~sc;
  if txns <> None && plan_sc <> "SNAPSHOT-SCAN(QuickXScan)" then
    Alcotest.failf "%s: unindexed snapshot read planned %s" ctx plan_sc;
  (ix, String.length plan_ix > 9 && String.sub plan_ix 0 9 = "SNAPSHOT(")

(* --- the seeded random program --- *)

type session = {
  s_ix : Database.txn;
  s_sc : Database.txn;
  mutable doomed : bool; (* staged an index drop on [ix]: must roll back *)
  reader : bool; (* never picked for a staged write *)
  frozen : (int * string) list; (* every item as of the snapshot *)
}

(* an exception's kind and message without engine-specific txids *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Database.Busy _ -> Error "busy"
  | exception Rx_txn.Lock_manager.Deadlock _ -> Error "deadlock"
  | exception Failure m -> Error ("failure: " ^ m)
  | exception Invalid_argument m -> Error ("invalid: " ^ m)

let both ~ctx what f_ix f_sc =
  let a = outcome f_ix and b = outcome f_sc in
  match (a, b) with
  | Ok x, Ok y when x = y -> ()
  | Error x, Error y when x = y -> ()
  | _ ->
      let s = function Ok _ -> "ok" | Error e -> e in
      Alcotest.failf "%s: %s diverged (indexed %s, full scan %s)" ctx what
        (s a) (s b)

let node_of ?txn db ~docid xpath =
  let r = Database.run ?txn db ~table ~column ~xpath in
  List.find_map
    (fun m -> if m.Database.docid = docid then Some m.Database.node else None)
    r.Database.matches

let update ?txn db ~docid ~field value =
  match node_of ?txn db ~docid ("/item/" ^ field) with
  | None -> invalid_arg "no such item"
  | Some node ->
      Database.update_xml_text ?txn db ~table ~column ~docid node
        (string_of_int value)

(* a sub-document insert: a new [field] element before [/item/t], or
   appended as the item's last child *)
let add_field ?txn db ~docid ~field ~before value =
  let anchor, position =
    if before then ("/item/t", fun n -> Rx_xmlstore.Doc_store.Before n)
    else ("/item", fun n -> Rx_xmlstore.Doc_store.Last_child_of n)
  in
  match node_of ?txn db ~docid anchor with
  | None -> invalid_arg "no such item"
  | Some node ->
      Database.insert_xml_fragment ?txn db ~table ~column ~docid
        (position node)
        (Printf.sprintf "<%s>%d</%s>" field value field)

(* a sub-document delete of the item's first [field] element *)
let drop_field ?txn db ~docid ~field =
  match node_of ?txn db ~docid ("/item/" ^ field) with
  | None -> invalid_arg "no such item"
  | Some node -> Database.delete_xml_node ?txn db ~table ~column ~docid node

(* one random sub-document write, the same on both databases *)
let random_subdoc_write ~ctx ?txns rng p ~docid =
  let tix, tsc =
    match txns with Some (a, b) -> (Some a, Some b) | None -> (None, None)
  in
  let field = if Random.State.bool rng then "k" else "v" in
  let value =
    if field = "k" then Random.State.int rng 12 else Random.State.int rng 100
  in
  match Random.State.int rng 3 with
  | 0 ->
      both ~ctx "update"
        (fun () -> update ?txn:tix p.ix ~docid ~field value)
        (fun () -> update ?txn:tsc p.sc ~docid ~field value)
  | 1 ->
      let before = Random.State.bool rng in
      both ~ctx "fragment insert"
        (fun () -> add_field ?txn:tix p.ix ~docid ~field ~before value)
        (fun () -> add_field ?txn:tsc p.sc ~docid ~field ~before value)
  | _ ->
      both ~ctx "node delete"
        (fun () -> drop_field ?txn:tix p.ix ~docid ~field)
        (fun () -> drop_field ?txn:tsc p.sc ~docid ~field)

let random_query rng =
  let k () = Random.State.int rng 12 and v () = Random.State.int rng 100 in
  match Random.State.int rng 5 with
  | 0 | 1 -> point (k ())
  | 2 -> below (v ())
  | 3 -> at_least (v ())
  | _ ->
      let lo = v () in
      between lo (lo + 5 + Random.State.int rng 40)

(* Runs one seeded program; returns the transcript of every
   in-transaction answer and how many of them probed an index. *)
let run_program ~seed ~parallelism =
  let rng = Random.State.make [| seed |] in
  let p = make_pair ~parallelism in
  let transcript = Buffer.create 4096 in
  let probes = ref 0 in
  let rand_doc () = 1 + Random.State.int rng 70 in
  let rand_item tag =
    item ~k:(Random.State.int rng 12) ~v:(Random.State.int rng 100) ~tag
  in
  let docs = List.init 40 (fun i -> rand_item (Printf.sprintf "init-%d" i)) in
  ignore (Database.insert_many p.ix ~table ~column docs);
  ignore (Database.insert_many p.sc ~table ~column docs);
  let sessions = ref [] in
  let alive s = Database.txn_active s.s_ix in
  let query_in ~ctx s xpath =
    let rows, probed =
      compare_query ~ctx ~txns:(s.s_ix, s.s_sc) p xpath
    in
    if probed then incr probes;
    Buffer.add_string transcript (xpath ^ " => " ^ show rows ^ "\n")
  in
  for step = 1 to 50 do
    let ctx = Printf.sprintf "seed %d step %d (parallelism %d)" seed step parallelism in
    sessions := List.filter alive !sessions;
    let pick ?(writer = false) () =
      match List.filter (fun s -> not (writer && s.reader)) !sessions with
      | [] -> None
      | l -> Some (List.nth l (Random.State.int rng (List.length l)))
    in
    let r = Random.State.int rng 100 in
    (if r < 12 then begin
       let x = rand_item (Printf.sprintf "s%d" step) in
       both ~ctx "insert"
         (fun () -> Database.insert p.ix ~table ~xml:[ (column, x) ] ())
         (fun () -> Database.insert p.sc ~table ~xml:[ (column, x) ] ())
     end
     else if r < 18 then begin
       let xs =
         List.init (2 + Random.State.int rng 3) (fun i ->
             rand_item (Printf.sprintf "m%d-%d" step i))
       in
       both ~ctx "insert_many"
         (fun () -> Database.insert_many p.ix ~table ~column xs)
         (fun () -> Database.insert_many p.sc ~table ~column xs)
     end
     else if r < 28 then begin
       (* only live rows: a failed autocommit delete aborts, and abort
          cost grows with the log *)
       let docid = rand_doc () in
       if Database.fetch_row p.ix ~table ~docid <> None then
         both ~ctx "delete"
           (fun () -> Database.delete p.ix ~table ~docid)
           (fun () -> Database.delete p.sc ~table ~docid)
     end
     else if r < 44 then random_subdoc_write ~ctx rng p ~docid:(rand_doc ())
     else if r < 54 then begin
       if List.length !sessions < 3 then begin
         let s_ix = Database.begin_txn p.ix and s_sc = Database.begin_txn p.sc in
         let frozen = fst (compare_query ~ctx ~txns:(s_ix, s_sc) p "/item") in
         let reader = Random.State.int rng 3 = 0 in
         sessions := { s_ix; s_sc; doomed = false; reader; frozen } :: !sessions
       end
     end
     else if r < 74 then begin
       match pick ~writer:true () with
       | None -> ()
       | Some s -> (
           match Random.State.int rng 5 with
           | 0 ->
               let x = rand_item (Printf.sprintf "t%d" step) in
               both ~ctx "staged insert"
                 (fun () ->
                   Database.insert ~txn:s.s_ix p.ix ~table ~xml:[ (column, x) ] ())
                 (fun () ->
                   Database.insert ~txn:s.s_sc p.sc ~table ~xml:[ (column, x) ] ())
           | 1 ->
               let docid = rand_doc () in
               both ~ctx "staged delete"
                 (fun () -> Database.delete ~txn:s.s_ix p.ix ~table ~docid)
                 (fun () -> Database.delete ~txn:s.s_sc p.sc ~table ~docid)
           | _ ->
               random_subdoc_write ~ctx:(ctx ^ ", staged") ~txns:(s.s_ix, s.s_sc)
                 rng p ~docid:(rand_doc ()))
     end
     else if r < 77 then begin
       (* the indexed side alone stages a DROP XML INDEX: its reads fall
          back to the snapshot scan, and the transaction must roll back *)
       match pick ~writer:true () with
       | Some s when not s.doomed ->
           s.doomed <- true;
           Database.Index.drop ~txn:s.s_ix p.ix ~table ~column
             ~name:(if Random.State.bool rng then "by_k" else "by_v")
       | _ -> ()
     end
     else if r < 88 then begin
       match pick () with
       | None -> ()
       | Some s ->
           if s.doomed || Random.State.int rng 3 = 0 then begin
             Database.rollback p.ix s.s_ix;
             Database.rollback p.sc s.s_sc
           end
           else
             both ~ctx "commit"
               (fun () -> Database.commit p.ix s.s_ix)
               (fun () -> Database.commit p.sc s.s_sc)
     end
     else
       List.iter
         (fun s ->
           List.iter (query_in ~ctx s)
             [ point 3; below 30; at_least 70; between 20 60; "/item/k" ])
         (List.filter alive !sessions));
    (* every step: one random query in every open transaction, and one
       autocommit query *)
    List.iter
      (fun s -> if alive s then query_in ~ctx s (random_query rng))
      !sessions;
    if
      List.exists
        (fun s -> Database.txn_active s.s_ix <> Database.txn_active s.s_sc)
        !sessions
    then Alcotest.failf "%s: transaction liveness diverged" ctx;
    (* a reader still sees its snapshot: later autocommits and commits
       must have retained every pre-image it can read *)
    List.iter
      (fun s ->
        if alive s && s.reader then
          let now = fst (compare_query ~ctx ~txns:(s.s_ix, s.s_sc) p "/item") in
          if now <> s.frozen then
            let moved l = List.filter (fun r -> not (List.mem r s.frozen)) l in
            let lost = List.filter (fun r -> not (List.mem r now)) s.frozen in
            Alcotest.failf "%s: reader's snapshot moved\n  gained: [%s]\n  lost: [%s]"
              ctx (show (moved now)) (show lost))
      !sessions;
    ignore (compare_query ~ctx p (random_query rng))
  done;
  List.iter
    (fun s ->
      if alive s then begin
        Database.rollback p.ix s.s_ix;
        Database.rollback p.sc s.s_sc
      end)
    !sessions;
  (Buffer.contents transcript, !probes)

let seeds = [ 1; 2; 3; 4; 5; 6 ]

let test_random_programs () =
  List.iter
    (fun seed ->
      let t1, probes = run_program ~seed ~parallelism:1 in
      let t4, _ = run_program ~seed ~parallelism:4 in
      if t1 <> t4 then
        Alcotest.failf "seed %d: parallelism 1 and 4 transcripts differ" seed;
      if probes = 0 then
        Alcotest.failf "seed %d: no in-transaction query probed an index" seed)
    seeds

(* --- the named scenarios, embedded --- *)

let load p =
  let docs =
    List.init 30 (fun i ->
        item ~k:(i mod 10) ~v:(i * 7 mod 100) ~tag:(Printf.sprintf "d%d" (i + 1)))
  in
  ignore (Database.insert_many p.ix ~table ~column docs);
  ignore (Database.insert_many p.sc ~table ~column docs)

let scenario_queries = [ point 3; below 20; at_least 80; between 30 60 ]

let answers ~ctx ?txns p =
  List.map (fun x -> fst (compare_query ~ctx ?txns p x)) scenario_queries

(* docids in [load]: doc i+1 has k = i mod 10 and v = 7i mod 100 *)
let test_scenarios () =
  List.iter
    (fun parallelism ->
      let ctx = Printf.sprintf "scenario (parallelism %d)" parallelism in
      let p = make_pair ~parallelism in
      load p;
      let a = (Database.begin_txn p.ix, Database.begin_txn p.sc) in
      let before = answers ~ctx ~txns:a p in
      let each f =
        f p.ix;
        f p.sc
      in
      (* doc 4 (k = 3) updated out of the point match, doc 6 (k = 5) into
         it; doc 14 (k = 3) deleted; a matching doc inserted; doc 2
         (v = 7) leaves the v < 20 range and doc 8 (v = 49) enters it *)
      each (fun db -> update db ~docid:4 ~field:"k" 7);
      each (fun db -> update db ~docid:6 ~field:"k" 3);
      each (fun db -> Database.delete db ~table ~docid:14);
      each (fun db ->
          ignore
            (Database.insert db ~table
               ~xml:[ (column, item ~k:3 ~v:10 ~tag:"late") ]
               ()));
      each (fun db -> update db ~docid:2 ~field:"v" 95);
      each (fun db -> update db ~docid:8 ~field:"v" 1);
      let after = answers ~ctx ~txns:a p in
      if after <> before then
        Alcotest.failf "%s: snapshot answers moved after later writes" ctx;
      let b = (Database.begin_txn p.ix, Database.begin_txn p.sc) in
      let now = answers ~ctx p in
      if answers ~ctx ~txns:b p <> now then
        Alcotest.failf "%s: a fresh snapshot differs from autocommit" ctx;
      if now = before then Alcotest.failf "%s: the writes changed nothing" ctx;
      (* a's own staged writes: an insert into the point match, an update
         into the range, a delete out of the point match *)
      let stage f = both ~ctx "staged write" (fun () -> f p.ix (fst a)) (fun () -> f p.sc (snd a)) in
      stage (fun db txn ->
          ignore
            (Database.insert ~txn db ~table
               ~xml:[ (column, item ~k:3 ~v:50 ~tag:"own") ]
               ()));
      stage (fun db txn -> update ~txn db ~docid:10 ~field:"v" 5);
      stage (fun db txn -> Database.delete ~txn db ~table ~docid:24);
      let own = answers ~ctx ~txns:a p in
      if own = before then Alcotest.failf "%s: own writes invisible" ctx;
      Database.rollback p.ix (fst b);
      Database.rollback p.sc (snd b);
      Database.commit p.ix (fst a);
      Database.commit p.sc (snd a);
      ignore (answers ~ctx p))
    [ 1; 4 ]

(* --- the wire: Rx_client inside BEGIN/COMMIT --- *)

let test_wire () =
  let p = make_pair ~parallelism:1 in
  load p;
  let srv_ix = Rx_server.start p.ix and srv_sc = Rx_server.start p.sc in
  let connect srv = Rx_client.connect ~port:(Rx_server.port srv) () in
  let r_ix = connect srv_ix and r_sc = connect srv_sc in
  let w_ix = connect srv_ix and w_sc = connect srv_sc in
  Fun.protect
    ~finally:(fun () ->
      List.iter Rx_client.close [ r_ix; r_sc; w_ix; w_sc ];
      Rx_server.stop srv_ix;
      Rx_server.stop srv_sc;
      Database.close p.ix;
      Database.close p.sc)
    (fun () ->
      let wire_answers ~ctx =
        List.map
          (fun xpath ->
            let a = Rx_client.query r_ix ~table ~column ~xpath in
            let b = Rx_client.query r_sc ~table ~column ~xpath in
            if a.Rx_client.matches <> b.Rx_client.matches then
              fail_rows ~ctx xpath ~ix:a.Rx_client.matches
                ~sc:b.Rx_client.matches;
            (* the cursor path streams the same rows *)
            let streamed =
              List.rev
                (Rx_client.fold_query r_ix ~table ~column ~xpath ~init:[]
                   ~f:(fun acc d s -> (d, s) :: acc))
            in
            if streamed <> a.Rx_client.matches then
              fail_rows ~ctx:(ctx ^ " (cursor)") xpath ~ix:streamed
                ~sc:a.Rx_client.matches;
            (a.Rx_client.plan, a.Rx_client.matches))
          scenario_queries
      in
      let t_ix = Rx_client.begin_txn r_ix and t_sc = Rx_client.begin_txn r_sc in
      let before = wire_answers ~ctx:"wire, at begin" in
      let plan, _ = List.hd before in
      if not (String.length plan > 9 && String.sub plan 0 9 = "SNAPSHOT(") then
        Alcotest.failf "wire: in-transaction point query planned %s" plan;
      (* later writes from another session, plus embedded updates under
         the engine lock *)
      List.iter
        (fun w ->
          ignore
            (Rx_client.insert w ~table
               ~xml:[ (column, item ~k:3 ~v:12 ~tag:"wire") ]
               ());
          Rx_client.delete w ~table ~docid:14)
        [ w_ix; w_sc ];
      List.iter
        (fun db ->
          Database.exclusively db (fun () ->
              update db ~docid:4 ~field:"k" 7;
              update db ~docid:6 ~field:"k" 3;
              update db ~docid:2 ~field:"v" 95))
        [ p.ix; p.sc ];
      let after = wire_answers ~ctx:"wire, after later writes" in
      if List.map snd after <> List.map snd before then
        Alcotest.failf "wire: snapshot answers moved after later writes";
      let prep = Rx_client.prepare r_ix ~table ~column ~xpath:(point 3) in
      if (Rx_client.run_prepared r_ix prep).Rx_client.matches <> snd (List.hd before)
      then Alcotest.failf "wire: prepared in-transaction query differs";
      List.iter
        (fun c ->
          ignore
            (Rx_client.insert c ~table ~xml:[ (column, item ~k:3 ~v:55 ~tag:"own") ] ()))
        [ r_ix; r_sc ];
      let own = wire_answers ~ctx:"wire, own staged insert" in
      if List.map snd own = List.map snd before then
        Alcotest.failf "wire: own staged insert invisible";
      Rx_client.commit r_ix t_ix;
      Rx_client.commit r_sc t_sc)

(* --- multi-valued anchors: why same-index ranges are never merged --- *)

(* A general comparison is existential per value node: a <p> holding
   values 0 and 100 satisfies [v >= 50 and v < 51], because 100 >= 50 and
   0 < 51. Index ANDing keeps it by intersecting the two ranges' anchors;
   one merged [50, 51) range would drop it. Document 1 carries that case
   plus a shallow /cat/v that no /cat/g/p anchor may pick up; the rest are
   seeded. Every plan must answer as the unindexed twin does. *)
let cat_doc_1 =
  "<cat><v>50</v><g><p><v>0</v><v>100</v></p><p><v>50.5</v></p>\
   <p><v>51</v></p><p><q><v>50</v></q><v>7</v></p></g></cat>"

let cat_doc rng =
  let values = [| "0"; "49"; "50"; "50.5"; "51"; "100" |] in
  let vs n =
    String.concat ""
      (List.init n (fun _ -> "<v>" ^ Rx_util.Prng.choose rng values ^ "</v>"))
  in
  let p () =
    "<p>" ^ vs (Rx_util.Prng.int rng 4)
    ^ (if Rx_util.Prng.bool rng then "<q>" ^ vs 1 ^ "</q>" else "")
    ^ "</p>"
  in
  "<cat>" ^ vs (Rx_util.Prng.int rng 2) ^ "<g>"
  ^ String.concat "" (List.init (1 + Rx_util.Prng.int rng 3) (fun _ -> p ()))
  ^ "</g></cat>"

let make_cat_db ~index ~parallelism =
  let config =
    { Database.default_config with parallelism; parallel_scan_min_pages = 0 }
  in
  let db = Database.create_in_memory ~config () in
  ignore (Database.create_table db ~name:table ~columns:[ (column, Value.T_xml) ]);
  Option.iter
    (fun path ->
      ignore
        (Database.Index.await
           (Database.Index.build db ~table ~column ~name:"by_v" ~path
              ~key_type:Rx_xindex.Index_def.K_double)))
    index;
  let rng = Rx_util.Prng.create ~seed:14 in
  ignore
    (Database.insert_many db ~table ~column
       (cat_doc_1 :: List.init 60 (fun _ -> cat_doc rng)));
  db

(* query, expected plan of the /cat/g/p/v-indexed database, and of the
   //v-indexed one *)
let multi_valued_queries =
  [
    ("/cat/g/p[v >= 50 and v < 51]", "NODEID-ANDING(by_v,by_v)",
     "NODEID-ANDING(by_v,by_v)+FILTER");
    ("/cat/g/p[v >= 50 and v < 51]/v", "NODEID-ANDING(by_v,by_v)+FILTER",
     "NODEID-ANDING(by_v,by_v)+FILTER");
    ("/cat/g/p[v > 0 and v <= 50 and v >= 49]", "NODEID-ANDING(by_v,by_v,by_v)",
     "NODEID-ANDING(by_v,by_v,by_v)+FILTER");
    ("//p[v >= 50 and v < 51]", "FULL-SCAN(QuickXScan)",
     "DOCID-ANDING(by_v,by_v)+FILTER");
  ]

let test_multi_valued_anchors () =
  List.iter
    (fun parallelism ->
      let exact = make_cat_db ~index:(Some "/cat/g/p/v") ~parallelism
      and contain = make_cat_db ~index:(Some "//v") ~parallelism
      and scan = make_cat_db ~index:None ~parallelism in
      List.iter
        (fun (xpath, exact_plan, contain_plan) ->
          let ctx = Printf.sprintf "%s (parallelism %d)" xpath parallelism in
          let _, want = answer scan xpath in
          let check_db name db plan =
            let got_plan, got = answer db xpath in
            if got_plan <> plan then
              Alcotest.failf "%s: %s index planned %s, expected %s" ctx name
                got_plan plan;
            if got <> want then fail_rows ~ctx:(ctx ^ ", " ^ name) xpath ~ix:got ~sc:want;
            let txn = Database.begin_txn db in
            let txn_plan, in_txn = answer ~txn db xpath in
            Database.commit db txn;
            if plan <> "FULL-SCAN(QuickXScan)" && txn_plan <> "SNAPSHOT(" ^ plan ^ ")"
            then Alcotest.failf "%s: %s index in-txn planned %s" ctx name txn_plan;
            if in_txn <> want then
              fail_rows ~ctx:(ctx ^ ", " ^ name ^ " in-txn") xpath ~ix:in_txn ~sc:want
          in
          check_db "/cat/g/p/v" exact exact_plan;
          check_db "//v" contain contain_plan)
        multi_valued_queries;
      (* the existential case itself: document 1's first <p> (values 0 and
         100) is an answer; a merged [50, 51) range would keep only the
         second *)
      let _, rows = answer exact "/cat/g/p[v >= 50 and v < 51]" in
      Alcotest.(check (list string))
        (Printf.sprintf "document 1 anchors (parallelism %d)" parallelism)
        [ "<p><v>0</v><v>100</v></p>"; "<p><v>50.5</v></p>" ]
        (List.filter_map (fun (d, s) -> if d = 1 then Some s else None) rows))
    [ 1; 4 ]

let () =
  Alcotest.run "snapshot_index"
    [
      ( "differential",
        [
          Alcotest.test_case "seeded programs, parallelism 1 and 4" `Quick
            test_random_programs;
          Alcotest.test_case "updates, deletes and inserts after the snapshot"
            `Quick test_scenarios;
          Alcotest.test_case "wire inside BEGIN/COMMIT" `Quick test_wire;
          Alcotest.test_case "multi-valued anchors, ranges not merged" `Quick
            test_multi_valued_anchors;
        ] );
    ]
