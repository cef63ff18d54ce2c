(* rxbench — the end-to-end benchmark of System R/X.

   One process loads a seeded corpus of product documents through the
   public [Database] API, then runs one named workload closed-loop (each
   session waits for its reply before sending the next request) and checks
   every answer against the seed's model:

   - point-read     2 [Rx_client] sessions over loopback against an
                    in-process [Rx_server]: skewed indexed point queries by
                    Id plus RegPrice range queries;
   - write-mix      2 [Rx_client] sessions: autocommit inserts and deletes
                    with a minority of indexed point reads;
   - scan-snapshot  1 embedded session: non-indexed full scans alternating
                    with read-only explicit transactions.

   It writes a results file with the end-to-end metrics (value, unit,
   sample count) and the run's metadata. With [--trace 1] it instead runs
   the workload twice on one set-up — plain, then with spans around every
   public call it makes — and writes a trace file: the spans plus the
   engine's counter deltas for each phase. [run.py] builds this program,
   runs it, and derives the per-layer metrics from that trace. *)

open Systemrx
module Json = Rx_obs.Json
module Metrics = Rx_obs.Metrics

let table = "products"
let column = "doc"

(* frames in the buffer pool [Database.open_dir] creates *)
let pool_frames = 2048

(* ---------- command line ---------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 16.
let trace = ref false
let docs = ref 12_500
let out_dir = ref ".bench_out"
let rev = ref "unknown"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "point-read | write-mix | scan-snapshot");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  measured time per phase");
      ("--trace", Arg.Int (fun n -> trace := n <> 0), "0|1  traced run");
      ("--docs", Arg.Set_int docs, "N  corpus size in documents");
      ("--out", Arg.Set_string out_dir, "DIR  results, trace and database");
      ("--rev", Arg.Set_string rev, "REV  source revision recorded in outputs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rxbench --workload W --seed N --seconds S --trace 0|1"

(* seconds on the monotonic clock, at nanosecond resolution: the
   microsecond steps of [Unix.gettimeofday] would quantize the shortest
   spans (a few microseconds) *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* ---------- corpus ---------- *)

type product = {
  id : int;
  price : int;  (** cents *)
  discount : int;  (** percent *)
  stock : int;
  name : string;
  features : string list;  (** the [Feature] elements nested in [Descr] *)
  xml : string;
}

let words =
  [| "amber"; "basalt"; "cedar"; "delta"; "ember"; "fjord"; "granite"; "harbor";
     "indigo"; "juniper"; "kelp"; "lumen"; "meadow"; "nickel"; "onyx"; "prairie";
     "quartz"; "river"; "sierra"; "tundra"; "umber"; "violet"; "willow"; "xenon";
     "yarrow"; "zephyr"; "alloy"; "breeze"; "canyon"; "dune"; "estuary"; "flint" |]

let feature_names =
  [| "waterproof"; "wireless"; "solar"; "foldable"; "organic"; "recycled";
     "compact"; "rugged" |]

(* A product document: the five scalar fields, then a [Descr] of 1–6
   paragraphs of 8–70 words, about half of them carrying a nested
   [Feature] — so document length varies about eightfold. *)
let make_product rng id =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let price = 100 + Random.State.int rng 49_900 in
  let discount = Random.State.int rng 51 in
  let stock = Random.State.int rng 200 in
  let name =
    Printf.sprintf "%s %s %d" (String.capitalize_ascii (pick words)) (pick words) id
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "<Product><Id>%d</Id><RegPrice>%d.%02d</RegPrice><Discount>0.%02d</Discount>\
     <Stock>%d</Stock><ProductName>%s</ProductName><Descr>"
    id (price / 100) (price mod 100) discount stock name;
  let features = ref [] in
  for _ = 1 to 1 + Random.State.int rng 6 do
    Buffer.add_string b "<Para>";
    let n = 8 + Random.State.int rng 63 in
    let at = if Random.State.bool rng then Random.State.int rng n else -1 in
    for w = 0 to n - 1 do
      if w > 0 then Buffer.add_char b ' ';
      if w = at then begin
        let f = pick feature_names in
        features := f :: !features;
        Printf.bprintf b "<Feature>%s</Feature> " f
      end;
      Buffer.add_string b (pick words)
    done;
    Buffer.add_string b "</Para>"
  done;
  Buffer.add_string b "</Descr></Product>";
  { id; price; discount; stock; name; features = !features; xml = Buffer.contents b }

let corpus () =
  let rng = Random.State.make [| !seed; 1 |] in
  Array.init !docs (fun i -> make_product rng (i + 1))

(* Zipf(1.0) over the corpus, with ranks scattered over Ids by a seeded
   permutation so hot documents do not share pages by construction. *)
let zipf_sampler n rng =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  fun rng ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)

let point_xpath id = Printf.sprintf "/Product[Id = %d]/ProductName" id
let point_answer p = Printf.sprintf "<ProductName>%s</ProductName>" p.name

let range_xpath lo =
  Printf.sprintf "/Product[RegPrice >= %d and RegPrice < %d]/Id" lo (lo + 1)

(* the non-indexed full scans: two value predicates and a descendant axis *)
let scans =
  [|
    ("/Product[Stock < 10]/ProductName", fun p -> if p.stock < 10 then 1 else 0);
    ("/Product[Discount >= 0.45]/Id", fun p -> if p.discount >= 45 then 1 else 0);
    ( "/Product//Feature[. = \"solar\"]",
      fun p -> List.length (List.filter (String.equal "solar") p.features) );
  |]

(* ---------- spans ---------- *)

type span = {
  sid : int;
  parent : int;  (** -1 for an operation's root span *)
  op : int;  (** the root span's id *)
  sname : string;
  t0 : float;
  t1 : float;
  n : float;  (** a size attached to the span: matches, KiB parsed *)
}

let next_span = Atomic.make 1

(* A session: one closed-loop caller, its tallies and its span buffer. *)
type session = {
  idx : int;
  rng : Random.State.t;
  tracing : bool;
  mutable spans : span list;
  mutable recording : bool;
  lat : (string, float list) Hashtbl.t;  (** ms per operation class *)
  mutable attempted : int;
  mutable failed : int;
  mutable busy : int;
  mutable wrong : int;
  mutable matches : int;
  mutable checked : int;  (** answers compared with the model *)
  mutable bytes_written : int;
  mutable marks : (float * float) list;  (** (start, end) of measured ops, newest first *)
  mutable errors : string list;
}

let new_session ~tracing idx =
  {
    idx;
    rng = Random.State.make [| !seed; 100 + idx |];
    tracing;
    spans = [];
    recording = false;
    lat = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    busy = 0;
    wrong = 0;
    matches = 0;
    checked = 0;
    bytes_written = 0;
    marks = [];
    errors = [];
  }

let push_span s ~sid ~parent ~op ~n sname t0 =
  s.spans <- { sid; parent; op; sname; t0; t1 = now (); n } :: s.spans

(* [span s ~parent ~op name f] runs [f id] and, in a traced session,
   records it as a child of [parent]. *)
let span ?(n = 0.) s ~parent ~op sname f =
  if not (s.tracing && s.recording) then f (-1)
  else begin
    let sid = Atomic.fetch_and_add next_span 1 in
    let t0 = now () in
    match f sid with
    | r ->
        push_span s ~sid ~parent ~op ~n sname t0;
        r
    | exception e ->
        push_span s ~sid ~parent ~op ~n sname t0;
        raise e
  end

type ctx = { s : session; op : int; parent : int }

let sub ?n c name f = span ?n c.s ~parent:c.parent ~op:c.op name (fun sid -> f { c with parent = sid })

(* an answer that differs from the model *)
exception Wrong of string

let expect cond what = if not cond then raise (Wrong what)

(* ---------- closed loop ---------- *)

type phase = {
  sessions : session list;
  window : float;  (** seconds from the first measured start to the last end *)
  rate : float;  (** ops/s, from the sessions' fast-tail cycle rates *)
  steal : float;  (** share of host CPU time stolen during the phase *)
  cycles : float list;  (** each session's ops/s over each of its cycles *)
  counters : (string * int) list;  (** engine counter deltas over the phase *)
}

let counter_snapshot db = Metrics.snapshot (Database.metrics db)

(* (steal, total) jiffies of the host's CPUs so far, from /proc/stat: the
   share of CPU time the hypervisor gave to others is the noise floor of
   every timing here *)
let cpu_jiffies () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let f =
      String.split_on_char ' ' line
      |> List.filter (fun x -> x <> "" && x <> "cpu")
      |> List.map int_of_string
    in
    (List.nth f 7, List.fold_left ( + ) 0 f)
  with _ -> (0, 0)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Throughput as the sum over sessions of each session's 90th-percentile
   rate over its whole cycles (one cycle holds every op class in its fixed
   proportion). Another tenant taking the shared host's CPU away only ever
   slows a cycle, so the fast tail tracks what the engine sustains while the
   window's mean tracks the host's load; a change in the engine moves every
   cycle, the fast ones too. A window without a whole cycle falls back to
   ops over the window. *)
let cycle_rates ~cycle sessions =
  let marks = List.concat_map (fun s -> s.marks) sessions in
  let first = List.fold_left (fun a (t0, _) -> Float.min a t0) infinity marks in
  let last = List.fold_left (fun a (_, t1) -> Float.max a t1) 0. marks in
  let window = last -. first in
  let per_session =
    List.map
      (fun s ->
        let m = Array.of_list (List.rev s.marks) in
        Array.init (Array.length m / cycle) (fun k ->
            float_of_int cycle /. (snd m.(((k + 1) * cycle) - 1) -. fst m.(k * cycle))))
      sessions
  in
  if List.exists (fun r -> Array.length r = 0) per_session then
    (window, float_of_int (List.length marks) /. window, [])
  else
    ( window,
      List.fold_left (fun a r -> a +. percentile r 0.9) 0. per_session,
      List.concat_map Array.to_list per_session )

(* Each session runs [op ctx i] for i = 0, 1, ... until [warm + seconds]
   have passed. Operations begun after [warm] are measured. [cycle] > 1
   keeps whole cycles: measuring starts and stops only at multiples of it,
   so every op class is sampled in its fixed proportion. *)
let closed_loop ~cycle ~db ~sessions ~warm ~seconds op =
  let before = Atomic.make None in
  let steal0, total0 = cpu_jiffies () in
  let t_start = now () in
  let warm_end = t_start +. warm and stop = t_start +. warm +. seconds in
  let run s =
    let i = ref 0 in
    while now () < stop || !i mod cycle <> 0 do
      if !i mod cycle = 0 && (not s.recording) && now () >= warm_end then begin
        (* the per-layer ratios divide counter deltas of the measured
           window by these, so they restart with it *)
        s.recording <- true;
        s.matches <- 0;
        s.bytes_written <- 0
      end;
      (* engine counters are read from the first measured operation on *)
      if s.recording && Atomic.get before = None then
        ignore (Atomic.compare_and_set before None (Some (counter_snapshot db)));
      let root = if s.tracing && s.recording then Atomic.fetch_and_add next_span 1 else -1 in
      let t0 = now () in
      let cls =
        try op { s; op = root; parent = root } !i with
        | Wrong what ->
            s.wrong <- s.wrong + 1;
            s.errors <- ("wrong: " ^ what) :: s.errors;
            "wrong"
        | Database.Busy _ ->
            s.busy <- s.busy + 1;
            "busy"
        | e ->
            s.failed <- s.failed + 1;
            s.errors <- Printexc.to_string e :: s.errors;
            "failed"
      in
      let t1 = now () in
      s.attempted <- s.attempted + 1;
      if s.recording then begin
        s.marks <- (t0, t1) :: s.marks;
        let l = try Hashtbl.find s.lat cls with Not_found -> [] in
        Hashtbl.replace s.lat cls (((t1 -. t0) *. 1000.) :: l);
        if s.tracing then push_span s ~sid:root ~parent:(-1) ~op:root ~n:0. ("op." ^ cls) t0
      end;
      incr i
    done
  in
  (match sessions with
  | [ s ] -> run s
  | _ -> List.iter Thread.join (List.map (Thread.create run) sessions));
  let window, rate, cycles = cycle_rates ~cycle sessions in
  let steal1, total1 = cpu_jiffies () in
  {
    steal = float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0));
    sessions;
    window;
    rate;
    cycles;
    counters =
      Metrics.diff ~before:(Option.value (Atomic.get before) ~default:[])
        ~after:(counter_snapshot db);
  }

let sum_sessions f ph = List.fold_left (fun a s -> a + f s) 0 ph.sessions

let latencies ph classes =
  List.concat_map
    (fun s -> List.concat_map (fun c -> try Hashtbl.find s.lat c with Not_found -> []) classes)
    ph.sessions
  |> Array.of_list

(* the operation classes that are queries *)
let read_classes = [ "point"; "range"; "scan"; "txn" ]

let ops ph = sum_sessions (fun s -> List.length s.marks) ph
let errors ph = sum_sessions (fun s -> s.failed + s.busy + s.wrong) ph

(* ---------- set-up ---------- *)

let db_dir () = Filename.concat !out_dir "db"

(* fresh dir → create table + value indexes → insert_many the corpus in
   batches of 1000 → checkpoint; returns the handle, each product's DocID
   and the elapsed seconds *)
let setup s products =
  let dir = db_dir () in
  rm_rf dir;
  let c = { s; op = 0; parent = -1 } in
  let t0 = now () in
  let db = Database.open_dir dir in
  ignore
    (Database.create_table db ~name:table ~columns:[ (column, Rx_relational.Value.T_xml) ]);
  sub c "setup.index_build" (fun _ ->
      List.iter
        (fun (name, path) ->
          ignore
            (Database.Index.await
               (Database.Index.build db ~table ~column ~name ~path
                  ~key_type:Rx_xindex.Index_def.K_double)))
        [ ("by_id", "/Product/Id"); ("by_price", "/Product/RegPrice") ]);
  let docids = Array.make (Array.length products) 0 in
  let dict = Rx_xml.Name_dict.create () in
  let batch = 1000 in
  let rec load from =
    if from < Array.length products then begin
      let len = min batch (Array.length products - from) in
      let xml = List.init len (fun i -> products.(from + i).xml) in
      if s.tracing then begin
        let kb = float_of_int (List.fold_left (fun a x -> a + String.length x) 0 xml) /. 1024. in
        sub ~n:kb c "xml.parse" (fun _ -> List.iter (fun x -> ignore (Rx_xml.Parser.parse dict x)) xml)
      end;
      let ids =
        sub ~n:(float_of_int len) c "setup.insert_many" (fun _ ->
            Database.insert_many db ~table ~column xml)
      in
      List.iteri (fun i d -> docids.(from + i) <- d) ids;
      load (from + len)
    end
  in
  load 0;
  sub c "setup.checkpoint" (fun _ -> Database.checkpoint db);
  (db, docids, now () -. t0)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let disk_bytes () =
  file_size (Filename.concat (db_dir ()) "data.rxdb")
  + file_size (Filename.concat (db_dir ()) "wal.rxlog")

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* ---------- operations ---------- *)

(* An embedded read split at the public calls: parse + rewrite (timed on
   their own; [prepare] repeats them on a plan-cache miss), prepare, run,
   serialize. Returns the serialized matches. *)
let embedded_read ?txn c db xpath =
  sub c "plan.parse" (fun _ ->
      ignore (Rx_xpath.Rewrite.simplify (Rx_xpath.Xpath_parser.parse xpath)));
  let r =
    match txn with
    | Some txn -> sub c "exec.run" (fun _ -> Database.run ~txn db ~table ~column ~xpath)
    | None ->
        let p = sub c "plan.prepare" (fun _ -> Database.prepare db ~table ~column ~xpath) in
        sub c "exec.run" (fun _ -> Database.run_prepared db p)
  in
  sub ~n:(float_of_int (List.length r.matches)) c "xml.serialize" (fun _ ->
      List.map r.serialize r.matches)

(* A read over the wire; in a traced session the same read is then
   repeated embedded under the engine lock, so the trace holds both the
   round trip and its engine-side parts. The repeat's prepare always hits
   the plan cache, so the round trip's span carries n = 1 only when no
   plan-cache miss happened while it ran (its own prepare hit too): run.py
   takes net.overhead_us over those reads alone. *)
let wire_read c db client xpath =
  let misses = Metrics.counter (Database.metrics db) "plancache.misses" in
  let m0 = Metrics.value misses in
  let t0 = now () in
  let r = Rx_client.query client ~table ~column ~xpath in
  if c.s.tracing && c.s.recording then
    push_span c.s ~sid:(Atomic.fetch_and_add next_span 1) ~parent:c.parent ~op:c.op
      ~n:(if Metrics.value misses = m0 then 1. else 0.)
      "net.roundtrip" t0;
  if c.s.tracing then
    sub c "embedded" (fun c -> Database.exclusively db (fun () -> ignore (embedded_read c db xpath)));
  c.s.matches <- c.s.matches + List.length r.matches;
  List.map snd r.matches

(* A write split at the public calls: begin and stage with [?txn] under the
   engine lock, then commit, whose durability wait runs outside it. *)
let embedded_write c db stage =
  let txn, r =
    Database.exclusively db (fun () ->
        let txn = sub c "txn.begin" (fun _ -> Database.begin_txn db) in
        match stage txn with
        | r -> (txn, r)
        | exception e ->
            Database.rollback db txn;
            raise e)
  in
  sub c "wal.commit" (fun _ -> Database.commit db txn);
  r

(* parsed on its own first, to time [Parser.parse] apart from the store *)
let embedded_insert c db dict xml =
  let kb = float_of_int (String.length xml) /. 1024. in
  sub ~n:kb c "xml.parse" (fun _ -> ignore (Rx_xml.Parser.parse dict xml));
  embedded_write c db (fun txn ->
      sub c "store.insert" (fun _ -> Database.insert ~txn db ~table ~xml:[ (column, xml) ] ()))

let embedded_delete c db docid =
  embedded_write c db (fun txn ->
      sub c "store.delete" (fun _ -> Database.delete ~txn db ~table ~docid))

let check_point c p answer =
  c.s.checked <- c.s.checked + 1;
  expect (answer = [ point_answer p ]) (Printf.sprintf "point read of Id %d" p.id)

let check_count c what expected answer =
  c.s.checked <- c.s.checked + 1;
  let got = List.length answer in
  expect (got = expected) (Printf.sprintf "%s: %d matches, model %d" what got expected)

(* ---------- workloads ---------- *)

type outcome = {
  plain : phase;
  traced : phase option;
  live_bytes : int;
  final_checks : (string * bool) list;
  plans : (string * string) list;
}

let sessions_of n ~tracing = List.init n (new_session ~tracing)

let warm_seconds () = Float.min 2. (0.2 *. !seconds)

let with_server db f =
  let srv = Rx_server.start db in
  Fun.protect ~finally:(fun () -> Rx_server.stop srv) @@ fun () -> f (Rx_server.port srv)

let with_clients port sessions f =
  let clients =
    List.map (fun s -> Rx_client.connect ~port ~client:(Printf.sprintf "perfbench-%d" s.idx) ()) sessions
  in
  Fun.protect ~finally:(fun () -> List.iter Rx_client.close clients) @@ fun () ->
  f (Array.of_list clients)

let plan_of db xpath = (xpath, (Database.explain db ~table ~column ~xpath).description)

let corpus_bytes products = Array.fold_left (fun a p -> a + String.length p.xml) 0 products

let point_read db products _docids =
  let n = Array.length products in
  let zipf = zipf_sampler n (Random.State.make [| !seed; 2 |]) in
  let by_price = Array.make 500 0 in
  Array.iter (fun p -> by_price.(p.price / 100) <- by_price.(p.price / 100) + 1) products;
  let phase ~tracing =
    let sessions = sessions_of 2 ~tracing in
    with_server db @@ fun port ->
    with_clients port sessions @@ fun clients ->
    closed_loop ~cycle:50 ~db ~sessions ~warm:(warm_seconds ()) ~seconds:!seconds
      (fun c i ->
        let client = clients.(c.s.idx) in
        (* every 50th read is a range read; the sessions are half a
           period apart *)
        if (i + (25 * c.s.idx)) mod 50 = 49 then begin
          let lo = 1 + Random.State.int c.s.rng 498 in
          check_count c "range read" by_price.(lo) (wire_read c db client (range_xpath lo));
          "range"
        end
        else begin
          let p = products.(zipf c.s.rng) in
          check_point c p (wire_read c db client (point_xpath p.id));
          "point"
        end)
  in
  let plain = phase ~tracing:false in
  let traced = if !trace then Some (phase ~tracing:true) else None in
  {
    plain;
    traced;
    live_bytes = corpus_bytes products;
    final_checks = [];
    plans = [ plan_of db (point_xpath 1); plan_of db (range_xpath 1) ];
  }

(* One session's share of the write-mix model: the live documents it owns
   (products whose Id is congruent to the session index mod 2), so the two
   sessions never touch each other's documents. *)
type owned = {
  mutable live : (product * int) array;  (** product, DocID *)
  mutable count : int;
  mutable next_id : int;
  mutable bytes : int;
}

let write_mix db products docids =
  let owned =
    Array.init 2 (fun k ->
        let mine = ref [] in
        Array.iteri (fun i p -> if p.id mod 2 = k then mine := (p, docids.(i)) :: !mine) products;
        let live = Array.of_list (List.rev !mine) in
        let first = Array.length products + 1 in
        {
          live;
          count = Array.length live;
          next_id = first + ((k - first) land 1);
          bytes = Array.fold_left (fun a (p, _) -> a + String.length p.xml) 0 live;
        })
  in
  let add o p docid =
    if o.count = Array.length o.live then o.live <- Array.append o.live o.live;
    o.live.(o.count) <- (p, docid);
    o.count <- o.count + 1;
    o.bytes <- o.bytes + String.length p.xml
  in
  let remove o i =
    let p, _ = o.live.(i) in
    o.count <- o.count - 1;
    o.live.(i) <- o.live.(o.count);
    o.bytes <- o.bytes - String.length p.xml
  in
  let phase ~tracing =
    let sessions = sessions_of 2 ~tracing in
    let dicts = Array.init 2 (fun _ -> Rx_xml.Name_dict.create ()) in
    let insert c client o =
      let p = make_product c.s.rng o.next_id in
      o.next_id <- o.next_id + 2;
      let docid =
        if c.s.tracing then embedded_insert c db dicts.(c.s.idx) p.xml
        else Rx_client.insert client ~table ~xml:[ (column, p.xml) ] ()
      in
      add o p docid;
      c.s.bytes_written <- c.s.bytes_written + String.length p.xml
    in
    let delete c client o =
      let i = Random.State.int c.s.rng o.count in
      let _, docid = o.live.(i) in
      if c.s.tracing then embedded_delete c db docid
      else Rx_client.delete client ~table ~docid;
      remove o i
    in
    with_server db @@ fun port ->
    with_clients port sessions @@ fun clients ->
    closed_loop ~cycle:10 ~db ~sessions ~warm:(warm_seconds ()) ~seconds:!seconds
      (fun c i ->
        let client = clients.(c.s.idx) and o = owned.(c.s.idx) in
        (* a fixed order of 4 inserts, 4 deletes and 2 reads per 10 ops *)
        match i mod 10 with
        | 2 | 7 ->
            let p, _ = o.live.(Random.State.int c.s.rng o.count) in
            check_point c p (wire_read c db client (point_xpath p.id));
            "point"
        | 0 | 3 | 5 | 8 ->
            insert c client o;
            "insert"
        | _ ->
            delete c client o;
            "delete")
  in
  let plain = phase ~tracing:false in
  let traced = if !trace then Some (phase ~tracing:true) else None in
  let live = owned.(0).count + owned.(1).count in
  let rows = Database.row_count db ~table in
  let report = Database.verify db in
  {
    plain;
    traced;
    live_bytes = owned.(0).bytes + owned.(1).bytes;
    final_checks =
      [
        (Printf.sprintf "row_count %d = model live documents %d" rows live, rows = live);
        ( Printf.sprintf "verify: %d pages checked, %d corrupt" report.pages_checked
            (List.length report.corrupt_pages),
          report.corrupt_pages = [] );
      ];
    plans = [ plan_of db (point_xpath 1) ];
  }

let scan_snapshot db products _docids =
  let expected = Array.map (fun (_, f) -> Array.fold_left (fun a p -> a + f p) 0 products) scans in
  let n = Array.length products in
  let phase ~tracing =
    let sessions = sessions_of 1 ~tracing in
    (* a cycle is: scan 0, txn read, scan 1, txn read, scan 2, txn read.
       No warm-up: the scans' working set exceeds the pool, so every
       cycle reads the data file afresh. *)
    closed_loop ~cycle:6 ~db ~sessions ~warm:0. ~seconds:!seconds (fun c i ->
        let txn_read () =
          let p = products.(Random.State.int c.s.rng n) in
          let txn = sub c "txn.begin" (fun _ -> Database.begin_txn db) in
          let answer =
            match embedded_read ~txn c db (point_xpath p.id) with
            | a -> a
            | exception e ->
                Database.rollback db txn;
                raise e
          in
          sub c "wal.commit" (fun _ -> Database.commit db txn);
          c.s.matches <- c.s.matches + List.length answer;
          check_point c p answer;
          "txn"
        in
        let scan k =
          let xpath, _ = scans.(k) in
          let answer =
            if c.s.tracing then embedded_read c db xpath
            else begin
              let r = Database.run db ~table ~column ~xpath in
              List.map r.serialize r.matches
            end
          in
          c.s.matches <- c.s.matches + List.length answer;
          check_count c xpath expected.(k) answer;
          "scan"
        in
        if i mod 2 = 0 then scan (i mod 6 / 2) else txn_read ())
  in
  let plain = phase ~tracing:false in
  let traced = if !trace then Some (phase ~tracing:true) else None in
  {
    plain;
    traced;
    live_bytes = corpus_bytes products;
    final_checks = [];
    plans = Array.to_list (Array.map (fun (x, _) -> plan_of db x) scans);
  }

(* After the traced pass every workload runs the same short probe: 50
   rounds of an explicit-transaction insert of a new product, a wire point
   read of it, and its delete. It gives the layers a workload does not
   reach (the wire on scan-snapshot, writes on the read-only workloads)
   measured spans and counter deltas; run.py uses them only for the
   metrics the workload itself leaves without a base. The insert and
   delete cancel, so the model stays right. Returns the spans and the
   probe's tallies for the trace. *)
let probe_rounds = 50

let probe db products =
  let before = counter_snapshot db in
  let s = new_session ~tracing:true 2 in
  s.recording <- true;
  let dict = Rx_xml.Name_dict.create () in
  with_server db @@ fun port ->
  with_clients port [ s ] @@ fun clients ->
  for k = 1 to probe_rounds do
    let root = Atomic.fetch_and_add next_span 1 in
    let c = { s; op = root; parent = root } in
    let t0 = now () in
    let p = make_product s.rng (Array.length products + 100_000_000 + k) in
    let docid = embedded_insert c db dict p.xml in
    (* prepared first, so the wire read's prepare hits the plan cache as a
       hot key's does and counts towards net.overhead_us *)
    ignore (Database.prepare db ~table ~column ~xpath:(point_xpath p.id));
    check_point c p (wire_read c db clients.(0) (point_xpath p.id));
    embedded_delete c db docid;
    s.bytes_written <- s.bytes_written + String.length p.xml;
    push_span s ~sid:root ~parent:(-1) ~op:root ~n:0. "op.probe" t0
  done;
  let counters = Metrics.diff ~before ~after:(counter_snapshot db) in
  ( s.spans,
    Json.Obj
      [
        ("writes", Json.Num (float_of_int (2 * probe_rounds)));
        ("bytes_written", Json.Num (float_of_int s.bytes_written));
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) counters));
      ] )

(* ---------- reporting ---------- *)

let num f = Json.Num f
let int n = Json.Num (float_of_int n)

let metric ?samples name value unit =
  ( name,
    Json.Obj
      ([ ("value", num value); ("unit", Json.Str unit) ]
      @ match samples with Some n -> [ ("samples", int n) ] | None -> []) )

let timing ph name classes q =
  let a = latencies ph classes in
  if Array.length a = 0 then [] else [ metric ~samples:(Array.length a) name (percentile a q) "ms" ]

let end_to_end ~setup_times ~disk ~live_bytes ph =
  let measured = ops ph and attempted = sum_sessions (fun s -> s.attempted) ph in
  let setup =
    let a = Array.of_list setup_times in
    [ metric ~samples:(Array.length a) "setup_s" (median a) "s" ]
  in
  setup
  @ [ metric ~samples:measured "ops_per_s" ph.rate "ops/s" ]
  @ (match !workload with
    | "scan-snapshot" ->
        timing ph "scan_p50_ms" [ "scan" ] 0.5
        @ timing ph "scan_p90_ms" [ "scan" ] 0.9
        @ timing ph "txn_read_p50_ms" [ "txn" ] 0.5
    | _ ->
        timing ph "read_p50_ms" [ "point"; "range" ] 0.5
        @ timing ph "read_p99_ms" [ "point"; "range" ] 0.99
        @ timing ph "write_p50_ms" [ "insert"; "delete" ] 0.5
        @ timing ph "write_p99_ms" [ "insert"; "delete" ] 0.99)
  @ [
      metric ~samples:attempted "error_rate"
        (float_of_int (errors ph) /. float_of_int (max 1 attempted))
        "ratio";
      metric "disk_bytes_per_user_byte" (float_of_int disk /. float_of_int live_bytes) "ratio";
      metric "peak_rss_mb" (peak_rss_mb ()) "MiB";
    ]

let phase_json ph =
  let classes = Hashtbl.create 8 in
  List.iter
    (Hashtbl.iter (fun c l ->
         let n = Option.value ~default:0 (Hashtbl.find_opt classes c) in
         Hashtbl.replace classes c (n + List.length l)))
    (List.map (fun s -> s.lat) ph.sessions);
  Json.Obj
    [
      ("ops", int (ops ph));
      ("window_s", num ph.window);
      ("ops_per_s", num ph.rate);
      ("host_steal_share", num ph.steal);
      ("cycle_rates", Json.Arr (List.map num ph.cycles));
      ("ops_per_s_over_window", num (float_of_int (ops ph) /. ph.window));
      ("errors", int (errors ph));
      ("by_class", Json.Obj (Hashtbl.fold (fun c n a -> (c, int n) :: a) classes [] |> List.sort compare));
      ("matches", int (sum_sessions (fun s -> s.matches) ph));
      ("bytes_written", int (sum_sessions (fun s -> s.bytes_written) ph));
      ("query_ms", num (Array.fold_left ( +. ) 0. (latencies ph read_classes)));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, int v)) ph.counters));
    ]

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_trace path ~origin ~meta ~setup_spans ~probe:(probe_spans, probe_json) ~data_pages o =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let line j = output_string oc (Json.to_string j); output_char oc '\n' in
  line (Json.Obj [ ("kind", Json.Str "meta"); ("meta", meta) ]);
  let traced = Option.get o.traced in
  line
    (Json.Obj
       [
         ("kind", Json.Str "phases");
         ("plain", phase_json o.plain);
         ("traced", phase_json traced);
         ("probe", probe_json);
         ("data_pages", int data_pages);
         ("live_bytes", int o.live_bytes);
       ]);
  let emit s =
    line
      (Json.Obj
         [
           ("kind", Json.Str "span");
           ("name", Json.Str s.sname);
           ("id", int s.sid);
           ("parent", int s.parent);
           ("op", int s.op);
           ("start_us", num ((s.t0 -. origin) *. 1e6));
           ("end_us", num ((s.t1 -. origin) *. 1e6));
           ("n", num s.n);
         ])
  in
  List.iter emit (List.rev setup_spans);
  List.iter (fun sess -> List.iter emit (List.rev sess.spans)) traced.sessions;
  List.iter emit (List.rev probe_spans)

let () =
  let origin = now () in
  let run =
    match !workload with
    | "point-read" -> point_read
    | "write-mix" -> write_mix
    | "scan-snapshot" -> scan_snapshot
    | w ->
        prerr_endline ("rxbench: unknown workload " ^ w);
        exit 2
  in
  mkdir_p !out_dir;
  let products = corpus () in
  let setup_session = new_session ~tracing:!trace (-1) in
  setup_session.recording <- true;
  (* setup_s is the median of three set-ups; a traced run needs only one *)
  let n_setups = if !trace then 1 else 3 in
  let rec setups k times =
    let db, docids, dt = setup setup_session products in
    if k <= 1 then (db, docids, List.rev (dt :: times))
    else begin
      Database.close db;
      setups (k - 1) (dt :: times)
    end
  in
  let db, docids, setup_times = setups n_setups [] in
  let data_after_setup = file_size (Filename.concat (db_dir ()) "data.rxdb") in
  let o = run db products docids in
  let probe = if !trace then Some (probe db products) else None in
  Database.checkpoint db;
  let disk = disk_bytes () in
  let checks = o.final_checks in
  let parallelism =
    match (Database.config db).parallelism with 0 -> Domain.recommended_domain_count () | p -> p
  in
  let page_size = Rx_storage.Buffer_pool.page_size (Database.buffer_pool db) in
  let meta =
    Json.Obj
      [
        ("workload", Json.Str !workload);
        ("seed", int !seed);
        ("seconds", num !seconds);
        ("trace", Json.Bool !trace);
        ("host_cores", int (Domain.recommended_domain_count ()));
        ("parallelism", int parallelism);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("rev", Json.Str !rev);
        ("setup_times_s", Json.Arr (List.map num setup_times));
        ("corpus_docs", int (Array.length products));
        ("corpus_xml_bytes", int (corpus_bytes products));
        ("data_file_bytes_after_setup", int data_after_setup);
        ("pool_bytes", int (pool_frames * page_size));
        ("page_size", int page_size);
        ("sessions", int (List.length o.plain.sessions));
        ( "flush_policy",
          Json.Str
            (Printf.sprintf "default_config: commit_window_us=%d auto_checkpoint=%b"
               (Database.config db).commit_window_us (Database.config db).auto_checkpoint) );
        ("plans", Json.Obj (List.map (fun (x, d) -> (x, Json.Str d)) o.plans));
      ]
  in
  let data_pages = (Database.stats db).data_pages in
  Database.close db;
  rm_rf (db_dir ());
  let all_phases = o.plain :: Option.to_list o.traced in
  let attempted =
    List.fold_left (fun a ph -> a + sum_sessions (fun s -> s.attempted) ph) 0 all_phases
  in
  let failed = List.fold_left (fun a ph -> a + errors ph) 0 all_phases in
  let correct = failed = 0 && List.for_all snd checks in
  let base = Printf.sprintf "%s-seed%d-trace%d" !workload !seed (if !trace then 1 else 0) in
  let trace_file = Filename.concat !out_dir (base ^ ".trace.jsonl") in
  Option.iter
    (fun probe ->
      write_trace trace_file ~origin ~meta ~setup_spans:setup_session.spans ~probe ~data_pages o)
    probe;
  let results =
    Json.Obj
      [
        ("meta", meta);
        ("correct", Json.Bool correct);
        ("attempted", int attempted);
        ("failed", int failed);
        ( "answers_checked",
          int (List.fold_left (fun a ph -> a + sum_sessions (fun s -> s.checked) ph) 0 all_phases) );
        ( "checks",
          Json.Obj (List.map (fun (what, ok) -> (what, Json.Bool ok)) checks) );
        ( "errors",
          Json.Arr
            (List.concat_map (fun ph -> List.concat_map (fun s -> s.errors) ph.sessions) all_phases
            |> List.filteri (fun i _ -> i < 20)
            |> List.map (fun e -> Json.Str e)) );
        ( "metrics",
          Json.Obj
            (end_to_end ~setup_times ~disk ~live_bytes:o.live_bytes o.plain) );
        ("plain_phase", phase_json o.plain);
        ("trace_file", if !trace then Json.Str trace_file else Json.Null);
      ]
  in
  let results_file = Filename.concat !out_dir (base ^ ".results.json") in
  write_file results_file (Json.to_string results);
  print_endline results_file
