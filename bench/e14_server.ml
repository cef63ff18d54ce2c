(* E14 — the network server under concurrent sessions: throughput scaling
   and group-commit absorption across connections.

   A fresh on-disk database is served by [Rx_server]; every client is a
   real [Rx_client] over loopback TCP running a mixed workload (explicit
   transaction insert+commit, auto-commit insert, indexed query, document
   fetch, rotated per request). Two phases are compared:

   - single:  1 client, the sequential baseline — every commit pays its
     own WAL fsync;
   - multi:   N clients (default 32) on threads. Concurrent commits from
     different sessions land in one commit window, so one leader fsync
     absorbs many commits and requests/sec rises.

   A third phase serves with [max_queue_depth] = 1 and hammers it to show
   overload degrades to the Busy status — counted client-side as
   [Database.Busy] — instead of queueing without bound or crashing.

   Gates: zero protocol errors anywhere; multi-client commits/fsync above
   the single-client baseline; multi-client requests/sec above the
   single-client baseline; at least one Busy rejection under overload.

   Emits BENCH_E14.json and exits non-zero if a gate fails.

     RX_E14_CLIENTS  concurrent sessions in the multi phase (default 32)
     RX_E14_OPS      requests per client (default 24) *)

open Systemrx
open Rx_relational

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_n i =
    let dir =
      Filename.concat base (Printf.sprintf "rx_e14_%d_%d" (Unix.getpid ()) i)
    in
    if Sys.file_exists dir then try_n (i + 1) else dir
  in
  try_n 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_fresh_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () ->
      try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () -> f dir

let doc i =
  Printf.sprintf "<book><title>Book %d</title><price>%d.5</price></book>" i
    (i mod 100)

let cval db name =
  Rx_obs.Metrics.(value (counter (Database.metrics db) name))

(* seed documents so queries and fetches have stable targets *)
let seed = 8

let with_served_db ?(max_queue_depth = 4096) f =
  with_fresh_dir @@ fun dir ->
  let db = Database.open_dir dir in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  ignore
    (Database.create_table db ~name:"books" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"by_price"
    ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double));
  for i = 1 to seed do
    ignore (Database.insert db ~table:"books" ~xml:[ ("doc", doc i) ] ())
  done;
  Database.set_config db { (Database.config db) with commit_window_us = 2500 };
  let config =
    { Rx_server.default_config with max_connections = 4096; max_queue_depth }
  in
  let srv = Rx_server.start ~config db in
  Fun.protect ~finally:(fun () -> Rx_server.stop srv) @@ fun () ->
  f db (Rx_server.port srv)

(* one client session: [ops] requests rotating through the four request
   shapes; returns (busy, protocol_errors, other_errors) *)
let client_workload ~port ~id ~ops =
  let busy = ref 0 and proto = ref 0 and other = ref 0 in
  (try
     let c = Rx_client.connect ~port ~client:(Printf.sprintf "e14-%d" id) () in
     Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
     for i = 1 to ops do
       try
         match (id + i) mod 4 with
         | 0 ->
             (* explicit transaction: keeps a txn active on the server so
                concurrent committers hold the commit window open *)
             let txn = Rx_client.begin_txn c in
             ignore
               (Rx_client.insert c ~table:"books"
                  ~xml:[ ("doc", doc ((id * 1000) + i)) ]
                  ());
             Rx_client.commit c txn
         | 1 ->
             ignore
               (Rx_client.insert c ~table:"books"
                  ~xml:[ ("doc", doc ((id * 1000) + i)) ]
                  ())
         | 2 ->
             ignore
               (Rx_client.query c ~table:"books" ~column:"doc"
                  ~xpath:"/book[price > 50]")
         | _ ->
             ignore
               (Rx_client.document c ~table:"books" ~column:"doc"
                  ~docid:((i mod seed) + 1))
       with
       | Database.Busy _ -> incr busy
       | Rx_wire.Protocol_error _ -> incr proto
       | _ -> incr other
     done
   with
  | Database.Busy _ -> incr busy
  | Rx_wire.Protocol_error _ -> incr proto
  | _ -> incr other);
  (!busy, !proto, !other)

type phase = {
  clients : int;
  requests : int;
  elapsed : float;
  rps : float;
  commits : int;
  fsyncs : int;
  per_fsync : float;
  busy : int;
  proto : int;
  other : int;
}

let fan_out ~clients ~port ~ops =
  let results = Array.make clients (0, 0, 0) in
  let threads =
    List.init clients (fun id ->
        Thread.create
          (fun () -> results.(id) <- client_workload ~port ~id ~ops)
          ())
  in
  List.iter Thread.join threads;
  Array.to_list results

let run_phase ~clients ~ops =
  with_served_db @@ fun db port ->
  (* txn.commit counts every committed transaction: explicit COMMITs and
     wire autocommit inserts/deletes alike *)
  let commits0 = cval db "txn.commit" in
  let fsyncs0 = cval db "wal.forced_syncs" in
  let t0 = Unix.gettimeofday () in
  let results = fan_out ~clients ~port ~ops in
  let elapsed = Unix.gettimeofday () -. t0 in
  let commits = cval db "txn.commit" - commits0 in
  let fsyncs = cval db "wal.forced_syncs" - fsyncs0 in
  let busy = List.fold_left (fun a (b, _, _) -> a + b) 0 results in
  let proto = List.fold_left (fun a (_, p, _) -> a + p) 0 results in
  let other = List.fold_left (fun a (_, _, o) -> a + o) 0 results in
  let requests = clients * ops in
  {
    clients;
    requests;
    elapsed;
    rps = float_of_int requests /. elapsed;
    commits;
    fsyncs;
    per_fsync =
      (if fsyncs = 0 then float_of_int commits
       else float_of_int commits /. float_of_int fsyncs);
    busy;
    proto;
    other;
  }

(* overload: a queue depth of 1 and many hammering clients must produce
   Busy rejections, not hangs or protocol failures *)
let run_overload ~clients ~ops =
  with_served_db ~max_queue_depth:1 @@ fun _db port ->
  let results = fan_out ~clients ~port ~ops in
  let busy = List.fold_left (fun a (b, _, _) -> a + b) 0 results in
  let proto = List.fold_left (fun a (_, p, _) -> a + p) 0 results in
  (busy, proto)

let write_json path ~single ~multi ~overload_busy ~overload_proto ~pass =
  let phase_json p =
    Printf.sprintf
      {|{
    "clients": %d,
    "requests": %d,
    "elapsed_s": %.3f,
    "requests_per_sec": %.1f,
    "commits": %d,
    "wal_fsyncs": %d,
    "commits_per_fsync": %.2f,
    "busy": %d,
    "protocol_errors": %d,
    "other_errors": %d
  }|}
      p.clients p.requests p.elapsed p.rps p.commits p.fsyncs p.per_fsync
      p.busy p.proto p.other
  in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "experiment": "e14_server",
  %s,
  "single": %s,
  "multi": %s,
  "scaling": %.2f,
  "absorption_gain": %.2f,
  "overload": { "busy": %d, "protocol_errors": %d },
  "pass": %b
}
|}
    (Report.json_meta ()) (phase_json single) (phase_json multi)
    (multi.rps /. single.rps)
    (multi.per_fsync /. single.per_fsync)
    overload_busy overload_proto pass;
  close_out oc

let row name p =
  [
    name;
    string_of_int p.clients;
    Printf.sprintf "%.0f" p.rps;
    string_of_int p.commits;
    string_of_int p.fsyncs;
    Printf.sprintf "%.2f" p.per_fsync;
  ]

let run () =
  Report.print_header "E14: network server (sessions, scaling, group commit)";
  let clients = getenv_int "RX_E14_CLIENTS" 32 in
  let ops = getenv_int "RX_E14_OPS" 24 in
  let single = run_phase ~clients:1 ~ops in
  let multi = run_phase ~clients ~ops in
  let overload_busy, overload_proto = run_overload ~clients:(max 4 (clients / 4)) ~ops:8 in
  Report.print_table
    ~columns:[ "phase"; "clients"; "req/sec"; "commits"; "wal fsyncs"; "commits/fsync" ]
    [ row "single" single; row "multi" multi ];
  Report.print_note
    "  scaling %s, absorption %.2f -> %.2f commits/fsync, overload busy=%d"
    (Report.fmt_ratio (multi.rps /. single.rps))
    single.per_fsync multi.per_fsync overload_busy;
  let proto_errors = single.proto + multi.proto + overload_proto in
  let other_errors = single.other + multi.other + single.busy + multi.busy in
  let pass =
    proto_errors = 0 && other_errors = 0
    && multi.per_fsync > single.per_fsync
    && multi.rps > single.rps
    && overload_busy > 0
  in
  write_json "BENCH_E14.json" ~single ~multi ~overload_busy ~overload_proto
    ~pass;
  Report.print_note "  wrote BENCH_E14.json (pass=%b)" pass;
  if not pass then begin
    if proto_errors > 0 then
      Printf.eprintf "E14 GATE FAILED: %d protocol errors\n" proto_errors;
    if other_errors > 0 then
      Printf.eprintf
        "E14 GATE FAILED: %d unexpected errors/rejections in normal phases\n"
        other_errors;
    if multi.per_fsync <= single.per_fsync then
      Printf.eprintf
        "E14 GATE FAILED: commits/fsync %.2f (multi) <= %.2f (single)\n"
        multi.per_fsync single.per_fsync;
    if multi.rps <= single.rps then
      Printf.eprintf "E14 GATE FAILED: req/sec %.0f (multi) <= %.0f (single)\n"
        multi.rps single.rps;
    if overload_busy = 0 then
      Printf.eprintf "E14 GATE FAILED: overload produced no Busy rejections\n";
    exit 1
  end
