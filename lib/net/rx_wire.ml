exception Protocol_error of string

let max_frame = 16 * 1024 * 1024
let status_protocol = 7
let default_chunk_bytes = 256 * 1024

type request =
  | Hello of { token : string; client : string }
  | Query of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Prepare of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Run_prepared of { stmt : int }
  | Begin
  | Commit of { txid : int }
  | Rollback of { txid : int }
  | Insert of {
      table : string;
      values : (string * string) list;
      xml : (string * string) list;
    }
  | Insert_many of { table : string; column : string; docs : string list }
  | Delete of { table : string; docid : int }
  | Get of { table : string; column : string; docid : int }
  | Stats
  | Shutdown
  | Bye
  | Repl_state
  | Repl_fetch of { from_lsn : int64; max_bytes : int }
  | Open_cursor of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
      chunk_bytes : int;
    }
  | Fetch of { cursor : int }
  | Close_cursor of { cursor : int }
  | Index_build of {
      table : string;
      column : string;
      name : string;
      path : string;
      key_type : string;
    }
  | Index_status of { table : string; column : string; name : string }
  | Index_rollback of { table : string; column : string; name : string }
  | Index_drop of { table : string; column : string; name : string }
  | Index_list of { table : string; column : string }

(* one index described on the wire; [ix_state] is "building" / "live" /
   "failed: <msg>", [ix_prior_generation] 0 when none *)
type index_info = {
  ix_name : string;
  ix_path : string;
  ix_key_type : string;
  ix_state : string;
  ix_generation : int;
  ix_entries : int;
  ix_build_ms : int;
  ix_prior_generation : int;
  ix_docs_scanned : int;
  ix_docs_total : int;
}

type ok =
  | R_hello of { server : string; session : int }
  | R_matches of { plan : string; matches : (int * string) list }
  | R_prepared of { stmt : int; plan : string }
  | R_txn of { txid : int }
  | R_unit
  | R_docid of { docid : int }
  | R_docids of { docids : int list }
  | R_doc of { doc : string }
  | R_stats of { json : string }
  | R_repl_state of {
      base_lsn : int64;
      durable_lsn : int64;
      generations : int;
      page_size : int;
    }
  | R_repl_batch of { start_lsn : int64; durable_lsn : int64; frames : string }
  | R_cursor of { cursor : int; plan : string }
  | R_rows_chunk of { matches : (int * string) list }
  | R_rows_end
  | R_index_info of { info : index_info }
  | R_index_list of { infos : index_info list }

type response = Ok of ok | Err of { status : int; message : string }

(* --- payload encoding ---

   Encoders append to a caller-supplied [Buffer.t] and every primitive
   writes through [Buffer.add_int*_be] — no intermediate [Bytes.create]
   per field, so a connection that reuses one scratch buffer encodes
   frames without fresh allocation (beyond buffer growth to the largest
   frame seen). *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let put_int b v = Buffer.add_int64_be b (Int64.of_int v)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

(* LSNs travel as true 8-byte big-endian int64s (put_int narrows through
   the host int, which is fine for counts but not for a durable on-disk
   position) *)
let put_i64 b v = Buffer.add_int64_be b v

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b f xs =
  put_u32 b (List.length xs);
  List.iter (f b) xs

let put_pair b (k, v) =
  put_str b k;
  put_str b v

(* --- payload decoding --- *)

type cursor = { s : string; mutable pos : int }

let need c n =
  if n < 0 || c.pos + n > String.length c.s then
    raise (Protocol_error "truncated payload")

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_int c =
  need c 8;
  let v = Int64.to_int (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_i64 c =
  need c 8;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Protocol_error "negative length");
  v

let get_str c =
  let len = get_u32 c in
  need c len;
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

let get_list c f =
  let n = get_u32 c in
  (* every element costs at least one byte on the wire, so a count larger
     than the remaining payload is malformed, not merely large *)
  need c n;
  List.init n (fun _ -> f c)

let get_pair c =
  let k = get_str c in
  let v = get_str c in
  (k, v)

(* --- requests --- *)

let encode_request_into b r =
  match r with
  | Hello { token; client } ->
      put_u8 b 1;
      put_str b token;
      put_str b client
  | Query { table; column; xpath; ns_env } ->
      put_u8 b 2;
      put_str b table;
      put_str b column;
      put_str b xpath;
      put_list b put_pair ns_env
  | Prepare { table; column; xpath; ns_env } ->
      put_u8 b 3;
      put_str b table;
      put_str b column;
      put_str b xpath;
      put_list b put_pair ns_env
  | Run_prepared { stmt } ->
      put_u8 b 4;
      put_int b stmt
  | Begin -> put_u8 b 5
  | Commit { txid } ->
      put_u8 b 6;
      put_int b txid
  | Rollback { txid } ->
      put_u8 b 7;
      put_int b txid
  | Insert { table; values; xml } ->
      put_u8 b 8;
      put_str b table;
      put_list b put_pair values;
      put_list b put_pair xml
  | Insert_many { table; column; docs } ->
      put_u8 b 9;
      put_str b table;
      put_str b column;
      put_list b put_str docs
  | Delete { table; docid } ->
      put_u8 b 10;
      put_str b table;
      put_int b docid
  | Get { table; column; docid } ->
      put_u8 b 11;
      put_str b table;
      put_str b column;
      put_int b docid
  | Stats -> put_u8 b 12
  | Shutdown -> put_u8 b 13
  | Bye -> put_u8 b 14
  | Repl_state -> put_u8 b 15
  | Repl_fetch { from_lsn; max_bytes } ->
      put_u8 b 16;
      put_i64 b from_lsn;
      put_int b max_bytes
  | Open_cursor { table; column; xpath; ns_env; chunk_bytes } ->
      put_u8 b 17;
      put_str b table;
      put_str b column;
      put_str b xpath;
      put_list b put_pair ns_env;
      put_int b chunk_bytes
  | Fetch { cursor } ->
      put_u8 b 18;
      put_int b cursor
  | Close_cursor { cursor } ->
      put_u8 b 19;
      put_int b cursor
  | Index_build { table; column; name; path; key_type } ->
      put_u8 b 20;
      put_str b table;
      put_str b column;
      put_str b name;
      put_str b path;
      put_str b key_type
  | Index_status { table; column; name } ->
      put_u8 b 21;
      put_str b table;
      put_str b column;
      put_str b name
  | Index_rollback { table; column; name } ->
      put_u8 b 22;
      put_str b table;
      put_str b column;
      put_str b name
  | Index_drop { table; column; name } ->
      put_u8 b 23;
      put_str b table;
      put_str b column;
      put_str b name
  | Index_list { table; column } ->
      put_u8 b 24;
      put_str b table;
      put_str b column

let encode_request r =
  let b = Buffer.create 64 in
  encode_request_into b r;
  Buffer.contents b

let finish c v =
  if c.pos <> String.length c.s then raise (Protocol_error "trailing bytes");
  v

let decode_request s =
  let c = { s; pos = 0 } in
  let r =
    match get_u8 c with
    | 1 ->
        let token = get_str c in
        let client = get_str c in
        Hello { token; client }
    | 2 ->
        let table = get_str c in
        let column = get_str c in
        let xpath = get_str c in
        let ns_env = get_list c get_pair in
        Query { table; column; xpath; ns_env }
    | 3 ->
        let table = get_str c in
        let column = get_str c in
        let xpath = get_str c in
        let ns_env = get_list c get_pair in
        Prepare { table; column; xpath; ns_env }
    | 4 -> Run_prepared { stmt = get_int c }
    | 5 -> Begin
    | 6 -> Commit { txid = get_int c }
    | 7 -> Rollback { txid = get_int c }
    | 8 ->
        let table = get_str c in
        let values = get_list c get_pair in
        let xml = get_list c get_pair in
        Insert { table; values; xml }
    | 9 ->
        let table = get_str c in
        let column = get_str c in
        let docs = get_list c get_str in
        Insert_many { table; column; docs }
    | 10 ->
        let table = get_str c in
        let docid = get_int c in
        Delete { table; docid }
    | 11 ->
        let table = get_str c in
        let column = get_str c in
        let docid = get_int c in
        Get { table; column; docid }
    | 12 -> Stats
    | 13 -> Shutdown
    | 14 -> Bye
    | 15 -> Repl_state
    | 16 ->
        let from_lsn = get_i64 c in
        let max_bytes = get_int c in
        Repl_fetch { from_lsn; max_bytes }
    | 17 ->
        let table = get_str c in
        let column = get_str c in
        let xpath = get_str c in
        let ns_env = get_list c get_pair in
        let chunk_bytes = get_int c in
        Open_cursor { table; column; xpath; ns_env; chunk_bytes }
    | 18 -> Fetch { cursor = get_int c }
    | 19 -> Close_cursor { cursor = get_int c }
    | 20 ->
        let table = get_str c in
        let column = get_str c in
        let name = get_str c in
        let path = get_str c in
        let key_type = get_str c in
        Index_build { table; column; name; path; key_type }
    | 21 ->
        let table = get_str c in
        let column = get_str c in
        let name = get_str c in
        Index_status { table; column; name }
    | 22 ->
        let table = get_str c in
        let column = get_str c in
        let name = get_str c in
        Index_rollback { table; column; name }
    | 23 ->
        let table = get_str c in
        let column = get_str c in
        let name = get_str c in
        Index_drop { table; column; name }
    | 24 ->
        let table = get_str c in
        let column = get_str c in
        Index_list { table; column }
    | op -> raise (Protocol_error (Printf.sprintf "unknown opcode %d" op))
  in
  finish c r

(* --- responses --- *)

let put_index_info b i =
  put_str b i.ix_name;
  put_str b i.ix_path;
  put_str b i.ix_key_type;
  put_str b i.ix_state;
  put_int b i.ix_generation;
  put_int b i.ix_entries;
  put_int b i.ix_build_ms;
  put_int b i.ix_prior_generation;
  put_int b i.ix_docs_scanned;
  put_int b i.ix_docs_total

let get_index_info c =
  let ix_name = get_str c in
  let ix_path = get_str c in
  let ix_key_type = get_str c in
  let ix_state = get_str c in
  let ix_generation = get_int c in
  let ix_entries = get_int c in
  let ix_build_ms = get_int c in
  let ix_prior_generation = get_int c in
  let ix_docs_scanned = get_int c in
  let ix_docs_total = get_int c in
  {
    ix_name;
    ix_path;
    ix_key_type;
    ix_state;
    ix_generation;
    ix_entries;
    ix_build_ms;
    ix_prior_generation;
    ix_docs_scanned;
    ix_docs_total;
  }

let encode_response_into b r =
  match r with
  | Ok ok -> (
      put_u8 b 0;
      match ok with
      | R_hello { server; session } ->
          put_u8 b 1;
          put_str b server;
          put_int b session
      | R_matches { plan; matches } ->
          put_u8 b 2;
          put_str b plan;
          put_list b
            (fun b (docid, doc) ->
              put_int b docid;
              put_str b doc)
            matches
      | R_prepared { stmt; plan } ->
          put_u8 b 3;
          put_int b stmt;
          put_str b plan
      | R_txn { txid } ->
          put_u8 b 4;
          put_int b txid
      | R_unit -> put_u8 b 5
      | R_docid { docid } ->
          put_u8 b 6;
          put_int b docid
      | R_docids { docids } ->
          put_u8 b 7;
          put_list b put_int docids
      | R_doc { doc } ->
          put_u8 b 8;
          put_str b doc
      | R_stats { json } ->
          put_u8 b 9;
          put_str b json
      | R_repl_state { base_lsn; durable_lsn; generations; page_size } ->
          put_u8 b 10;
          put_i64 b base_lsn;
          put_i64 b durable_lsn;
          put_int b generations;
          put_int b page_size
      | R_repl_batch { start_lsn; durable_lsn; frames } ->
          put_u8 b 11;
          put_i64 b start_lsn;
          put_i64 b durable_lsn;
          put_str b frames
      | R_cursor { cursor; plan } ->
          put_u8 b 12;
          put_int b cursor;
          put_str b plan
      | R_rows_chunk { matches } ->
          put_u8 b 13;
          put_list b
            (fun b (docid, doc) ->
              put_int b docid;
              put_str b doc)
            matches
      | R_rows_end -> put_u8 b 14
      | R_index_info { info } ->
          put_u8 b 15;
          put_index_info b info
      | R_index_list { infos } ->
          put_u8 b 16;
          put_list b put_index_info infos)
  | Err { status; message } ->
      if status <= 0 || status > 255 then
        invalid_arg "Rx_wire: error status out of range";
      put_u8 b status;
      put_str b message

let encode_response r =
  let b = Buffer.create 64 in
  encode_response_into b r;
  Buffer.contents b

let decode_response s =
  let c = { s; pos = 0 } in
  let r =
    match get_u8 c with
    | 0 -> (
        match get_u8 c with
        | 1 ->
            let server = get_str c in
            let session = get_int c in
            Ok (R_hello { server; session })
        | 2 ->
            let plan = get_str c in
            let matches =
              get_list c (fun c ->
                  let docid = get_int c in
                  let doc = get_str c in
                  (docid, doc))
            in
            Ok (R_matches { plan; matches })
        | 3 ->
            let stmt = get_int c in
            let plan = get_str c in
            Ok (R_prepared { stmt; plan })
        | 4 -> Ok (R_txn { txid = get_int c })
        | 5 -> Ok R_unit
        | 6 -> Ok (R_docid { docid = get_int c })
        | 7 -> Ok (R_docids { docids = get_list c get_int })
        | 8 -> Ok (R_doc { doc = get_str c })
        | 9 -> Ok (R_stats { json = get_str c })
        | 10 ->
            let base_lsn = get_i64 c in
            let durable_lsn = get_i64 c in
            let generations = get_int c in
            let page_size = get_int c in
            Ok (R_repl_state { base_lsn; durable_lsn; generations; page_size })
        | 11 ->
            let start_lsn = get_i64 c in
            let durable_lsn = get_i64 c in
            let frames = get_str c in
            Ok (R_repl_batch { start_lsn; durable_lsn; frames })
        | 12 ->
            let cursor = get_int c in
            let plan = get_str c in
            Ok (R_cursor { cursor; plan })
        | 13 ->
            let matches =
              get_list c (fun c ->
                  let docid = get_int c in
                  let doc = get_str c in
                  (docid, doc))
            in
            Ok (R_rows_chunk { matches })
        | 14 -> Ok R_rows_end
        | 15 -> Ok (R_index_info { info = get_index_info c })
        | 16 -> Ok (R_index_list { infos = get_list c get_index_info })
        | tag -> raise (Protocol_error (Printf.sprintf "unknown result tag %d" tag)))
    | status -> Err { status; message = get_str c }
  in
  finish c r

(* --- framing over a file descriptor ---

   A framer holds one connection's retained scratch: the payload is
   encoded into a [Buffer.t], blitted after a 4-byte header into a wire
   buffer grown to the largest frame seen, and written with one
   [Unix.write] loop; reads land in a receive buffer sized the same way.
   Not thread-safe — a framer belongs to exactly one connection. *)

type framer = {
  payload : Buffer.t;  (* encode scratch, cleared per frame *)
  mutable wire : Bytes.t;  (* header + payload, grown to the largest frame *)
  hdr : Bytes.t;  (* 4-byte receive header *)
  mutable rbuf : Bytes.t;  (* receive payload scratch *)
}

let framer () =
  {
    payload = Buffer.create 512;
    wire = Bytes.create 4096;
    hdr = Bytes.create 4;
    rbuf = Bytes.create 4096;
  }

let rec really_write_bytes fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    really_write_bytes fd b (off + n) (len - n)
  end

let framed_send fr fd encode v =
  Buffer.clear fr.payload;
  encode fr.payload v;
  let len = Buffer.length fr.payload in
  if len > max_frame then invalid_arg "Rx_wire: frame exceeds max_frame";
  if Bytes.length fr.wire < 4 + len then
    fr.wire <- Bytes.create (max (4 + len) (2 * Bytes.length fr.wire));
  Bytes.set_int32_be fr.wire 0 (Int32.of_int len);
  Buffer.blit fr.payload 0 fr.wire 4 len;
  really_write_bytes fd fr.wire 0 (4 + len)

(* [`Eof] only when not a single byte arrives; a partial read followed by
   EOF is a torn frame *)
let read_exact_into fd buf n =
  let rec go off =
    if off = n then `Ok
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then `Eof else raise (Protocol_error "truncated frame")
      | k -> go (off + k)
  in
  go 0

let framed_recv fr fd decode =
  match read_exact_into fd fr.hdr 4 with
  | `Eof -> None
  | `Ok ->
      let len = Int32.to_int (Bytes.get_int32_be fr.hdr 0) in
      if len < 0 || len > max_frame then
        raise (Protocol_error (Printf.sprintf "oversized frame (%d bytes)" len));
      if Bytes.length fr.rbuf < len then
        fr.rbuf <- Bytes.create (max len (2 * Bytes.length fr.rbuf));
      (match read_exact_into fd fr.rbuf len with
      | `Eof -> raise (Protocol_error "truncated frame")
      | `Ok -> Some (decode (Bytes.sub_string fr.rbuf 0 len)))
