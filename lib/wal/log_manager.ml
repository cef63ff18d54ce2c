(* Record framing on the wire: u32 payload length, u32 CRC-32 of the
   payload, then the payload. The in-memory image [contents] always mirrors
   every frame appended since the last truncation; for the file backend,
   [written] tracks how much of it has reached the fd and [durable] how
   much of *that* has been fsynced ([durable <= written <= length]).

   The file starts with a 16-byte header: the magic "RXWAL001" followed by
   the 8-byte base LSN. LSNs are [base + offset-in-log]; truncation
   advances the base to the old tail instead of resetting to zero, so LSNs
   stay monotonic across checkpoints and page LSNs stamped before a
   truncation can never alias a post-truncation record.

   Concurrency: appends are serialized by the engine's write path, but
   [flush] / [flush_to] / [group_commit] may be called from concurrent
   committers. All state lives under [lock]; the physical write + fsync
   happen with the lock released and [flushing] set, so exactly one leader
   owns the fd at a time while followers wait on [flushed]. *)

type backend = Memory | File of Unix.file_descr

let magic = "RXWAL001"
let header_size = 16
let frame_overhead = 8
let default_buffer_limit = 256 * 1024

exception Corrupt_record of { lsn : int64 }

let () =
  Printexc.register_printer (function
    | Corrupt_record { lsn } ->
        Some (Printf.sprintf "Log_manager.Corrupt_record(lsn %Ld)" lsn)
    | _ -> None)

type t = {
  backend : backend;
  mutable contents : Buffer.t;
  mutable base : int64; (* LSN of the first byte of [contents] *)
  mutable durable : int; (* bytes of [contents] written + fsynced *)
  mutable written : int; (* bytes of [contents] written to the fd *)
  mutable appended : int;
  mutable records : int; (* frames currently in [contents] *)
  mutable torn_tail : int; (* bytes discarded as a torn tail at open *)
  mutable buffer_limit : int; (* staged bytes beyond which append spills *)
  mutable commit_window_us : int; (* group-commit leader wait *)
  mutable flushing : bool; (* a leader owns the write+fsync path *)
  lock : Mutex.t;
  flushed : Condition.t; (* broadcast when a leader finishes (or fails) *)
  mutable fault : Rx_storage.Fault.t option;
  c_records : Rx_obs.Metrics.counter;
  c_bytes : Rx_obs.Metrics.counter;
  c_syncs : Rx_obs.Metrics.counter;
  c_torn : Rx_obs.Metrics.counter;
  c_gc_groups : Rx_obs.Metrics.counter;
  c_gc_absorbed : Rx_obs.Metrics.counter;
  c_gc_syncs : Rx_obs.Metrics.counter;
  c_frames_read : Rx_obs.Metrics.counter;
}

(* A log over [backend] whose [contents], all durable, start at LSN
   [base]. Pre-existing bytes count as appended, mirroring
   [appended_bytes]. *)
let make metrics backend contents ~base ~records ~torn_tail =
  let c = Rx_obs.Metrics.counter metrics in
  let n = Buffer.length contents in
  let t =
    {
      backend;
      contents;
      base;
      durable = n;
      written = n;
      appended = n;
      records;
      torn_tail;
      buffer_limit = default_buffer_limit;
      commit_window_us = 0;
      flushing = false;
      lock = Mutex.create ();
      flushed = Condition.create ();
      fault = None;
      c_records = c "wal.records";
      c_bytes = c "wal.bytes_appended";
      c_syncs = c "wal.forced_syncs";
      c_torn = c "wal.torn_tail_bytes";
      c_gc_groups = c "wal.group_commit.groups";
      c_gc_absorbed = c "wal.group_commit.absorbed";
      c_gc_syncs = c "wal.group_commit.fsyncs";
      c_frames_read = c "wal.frames_read";
    }
  in
  Rx_obs.Metrics.add t.c_bytes n;
  Rx_obs.Metrics.add t.c_torn torn_tail;
  t

let create_in_memory ?(metrics = Rx_obs.Metrics.default) () =
  make metrics Memory (Buffer.create 4096) ~base:0L ~records:0 ~torn_tail:0

let crc_of_payload s = Int32.to_int (Rx_util.Crc32.of_string s) land 0xFFFFFFFF

(* Length of the prefix of [s] (a frame stream) that consists of complete,
   CRC-valid frames, plus the number of frames in it. Anything past that
   point is a torn tail: a crash interrupted the last flush mid-frame. *)
let valid_prefix s =
  let len = String.length s in
  let rec loop pos nrec =
    if pos + frame_overhead > len then (pos, nrec)
    else begin
      let r = Rx_util.Bytes_io.Reader.of_string ~pos s in
      let rec_len = Rx_util.Bytes_io.Reader.u32 r in
      let crc = Rx_util.Bytes_io.Reader.u32 r in
      if rec_len < 0 || pos + frame_overhead + rec_len > len then (pos, nrec)
      else
        let payload = String.sub s (pos + frame_overhead) rec_len in
        if crc_of_payload payload <> crc then (pos, nrec)
        else loop (pos + frame_overhead + rec_len) (nrec + 1)
    end
  in
  loop 0 0

let write_header fd base =
  let hdr = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 hdr 0 8;
  Bytes.set_int64_be hdr 8 base;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec w pos =
    if pos < header_size then w (pos + Unix.write fd hdr pos (header_size - pos))
  in
  w 0

let open_file ?(metrics = Rx_obs.Metrics.default) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  let contents = Buffer.create (max 4096 size) in
  let base = ref 0L in
  let records = ref 0 in
  let torn_tail = ref 0 in
  if size < header_size then begin
    (* fresh (or hopelessly short) log: lay down a clean header *)
    Unix.ftruncate fd 0;
    write_header fd 0L
  end
  else begin
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let buf = Bytes.create size in
    let rec fill pos =
      if pos < size then begin
        let n = Unix.read fd buf pos (size - pos) in
        if n = 0 then failwith "Log_manager.open_file: short read";
        fill (pos + n)
      end
    in
    fill 0;
    if Bytes.sub_string buf 0 8 <> magic then
      failwith "Log_manager.open_file: bad magic";
    base := Bytes.get_int64_be buf 8;
    let body = Bytes.sub_string buf header_size (size - header_size) in
    let valid, nrec = valid_prefix body in
    records := nrec;
    torn_tail := String.length body - valid;
    (* a torn tail: a crash interrupted the last append(s); the valid
       prefix is the whole log *)
    if !torn_tail > 0 then Unix.ftruncate fd (header_size + valid);
    Buffer.add_string contents (String.sub body 0 valid)
  end;
  make metrics (File fd) contents ~base:!base ~records:!records
    ~torn_tail:!torn_tail

let set_fault t fault = t.fault <- fault

let set_commit_window t us =
  Mutex.protect t.lock (fun () -> t.commit_window_us <- max 0 us)

let set_buffer_limit t bytes =
  Mutex.protect t.lock (fun () -> t.buffer_limit <- max 0 bytes)

let frame record =
  let payload = Log_record.encode record in
  let w =
    Rx_util.Bytes_io.Writer.create ~capacity:(String.length payload + frame_overhead) ()
  in
  Rx_util.Bytes_io.Writer.u32 w (String.length payload);
  Rx_util.Bytes_io.Writer.u32 w (crc_of_payload payload);
  Rx_util.Bytes_io.Writer.bytes w payload;
  Rx_util.Bytes_io.Writer.contents w

let tail_lsn_u t = Int64.add t.base (Int64.of_int (Buffer.length t.contents))
let durable_lsn_u t = Int64.add t.base (Int64.of_int t.durable)
let tail_lsn t = Mutex.protect t.lock (fun () -> tail_lsn_u t)
let durable_lsn t = Mutex.protect t.lock (fun () -> durable_lsn_u t)
let base_lsn t = Mutex.protect t.lock (fun () -> t.base)

(* Raw durable frames from [from] onward, cut at a frame boundary no more
   than [max_bytes] past the start (the first frame is always included, so a
   caller polling with a small budget still makes progress). Only fsynced
   bytes ship: [durable] never regresses across a crash (an fsynced frame is
   by definition inside the CRC-valid prefix that reopen keeps), so a frame
   returned here can never later disappear from the log. [from] must be a
   frame boundary previously handed out by this module (an append LSN, the
   base, or a batch end); values below [base] clamp to the base — the caller
   detects the gap via the returned start LSN and consults the archive. *)
let raw_since t ?(max_bytes = max_int) from =
  Mutex.protect t.lock (fun () ->
      let from_off = max 0 (Int64.to_int (Int64.sub from t.base)) in
      let from_off = min from_off t.durable in
      let start = Int64.add t.base (Int64.of_int from_off) in
      let s = Buffer.contents t.contents in
      let rec until pos =
        if pos + frame_overhead > t.durable then pos
        else begin
          let r = Rx_util.Bytes_io.Reader.of_string ~pos s in
          let rec_len = Rx_util.Bytes_io.Reader.u32 r in
          let next = pos + frame_overhead + rec_len in
          if next > t.durable then pos
          else if pos > from_off && next - from_off > max_bytes then pos
          else until next
        end
      in
      let stop = until from_off in
      (start, String.sub s from_off (stop - from_off)))

(* Move the base LSN of an *empty* log. Used at replica promotion, where
   the local log (never appended to while replicating) must restart at the
   replication cursor so new records continue the leader's LSN timeline and
   stay above every replicated page LSN. *)
let reset_base t base =
  Mutex.protect t.lock (fun () ->
      if Buffer.length t.contents > 0 then
        invalid_arg "Log_manager.reset_base: log not empty";
      t.base <- base;
      match t.backend with
      | Memory -> ()
      | File fd ->
          write_header fd base;
          Unix.fsync fd)

(* Write [chunk] (which is [contents[from, from+len)]) at its file offset.
   No locking here: the caller either holds [lock] (append spill) or owns
   [flushing] (leader flush), so no one else touches the fd. *)
let write_file t fd ~from chunk =
  let bytes = Bytes.of_string chunk in
  Rx_storage.Fault.wrap_write t.fault ~op:"wal.write" ~len:(Bytes.length bytes)
    ~write:(fun n ->
      ignore (Unix.lseek fd (header_size + from) Unix.SEEK_SET);
      let rec write pos =
        if pos < n then write (pos + Unix.write fd bytes pos (n - pos))
      in
      write 0)

let append t record =
  Mutex.protect t.lock (fun () ->
      let lsn = tail_lsn_u t in
      let framed = frame record in
      Buffer.add_string t.contents framed;
      t.appended <- t.appended + String.length framed;
      t.records <- t.records + 1;
      Rx_obs.Metrics.incr t.c_records;
      Rx_obs.Metrics.add t.c_bytes (String.length framed);
      (match t.backend with
       | File fd
         when (not t.flushing)
              && Buffer.length t.contents - t.written > t.buffer_limit ->
           (* spill: batch-write every staged frame, no fsync. Bounds the
              write the next flush performs without claiming durability —
              if the process dies first the spilled frames heal as a torn
              (or merely unreferenced) tail. Skipped while a leader owns
              the fd. *)
           let until = Buffer.length t.contents in
           write_file t fd ~from:t.written
             (Buffer.sub t.contents t.written (until - t.written));
           t.written <- until
       | _ -> ());
      lsn)

(* Flush everything appended so far; caller holds [lock]. If a leader is
   already writing, wait for it and re-check — it may have snapshotted a
   shorter tail than we need. *)
let rec flush_locked t =
  let target = Buffer.length t.contents in
  if t.durable < target then
    if t.flushing then begin
      Condition.wait t.flushed t.lock;
      flush_locked t
    end
    else begin
      Rx_obs.Metrics.incr t.c_syncs;
      match t.backend with
      | Memory ->
          t.written <- target;
          t.durable <- target
      | File fd ->
          t.flushing <- true;
          let from = t.written in
          let chunk =
            if target > from then Buffer.sub t.contents from (target - from)
            else ""
          in
          Mutex.unlock t.lock;
          let outcome =
            try
              if chunk <> "" then write_file t fd ~from chunk;
              Rx_storage.Fault.wrap_fsync t.fault ~op:"wal.fsync"
                ~sync:(fun () -> Unix.fsync fd);
              None
            with e -> Some e
          in
          Mutex.lock t.lock;
          t.flushing <- false;
          Condition.broadcast t.flushed;
          (match outcome with
          | None ->
              if target > t.written then t.written <- target;
              if target > t.durable then t.durable <- target
          | Some e -> raise e)
    end

let flush t = Mutex.protect t.lock (fun () -> flush_locked t)

let flush_to t lsn =
  Mutex.protect t.lock (fun () ->
      if Int64.compare (durable_lsn_u t) lsn < 0 then flush_locked t)

let group_commit t ?(wait = true) lsn =
  Mutex.protect t.lock (fun () ->
      let pending () = Int64.compare (durable_lsn_u t) lsn < 0 in
      let led = ref false in
      let rec loop () =
        if pending () then
          if t.flushing then begin
            (* follower: a leader's flush is in flight; wait for its
               broadcast — it usually covers our LSN too *)
            Condition.wait t.flushed t.lock;
            loop ()
          end
          else begin
            led := true;
            (match t.backend with
            | File _ when wait && t.commit_window_us > 0 ->
                (* leader: hold the window open (reserving leadership so
                   no one else fsyncs early) so concurrent committers can
                   append their commit records and share this fsync *)
                t.flushing <- true;
                Mutex.unlock t.lock;
                Unix.sleepf (float_of_int t.commit_window_us /. 1e6);
                Mutex.lock t.lock;
                t.flushing <- false
            | _ -> ());
            Rx_obs.Metrics.incr t.c_gc_groups;
            Rx_obs.Metrics.incr t.c_gc_syncs;
            flush_locked t;
            loop ()
          end
      in
      loop ();
      if not !led then Rx_obs.Metrics.incr t.c_gc_absorbed)

(* CRC-check and decode one frame's payload; any defect is corruption at
   [lsn] *)
let decode_payload ~lsn ~crc payload =
  if crc_of_payload payload <> crc then raise (Corrupt_record { lsn });
  try Log_record.decode payload with _ -> raise (Corrupt_record { lsn })

let iter t ?(from = 0L) f =
  let s = Buffer.contents t.contents in
  let len = String.length s in
  let rec loop pos =
    if pos + frame_overhead <= len then begin
      let r = Rx_util.Bytes_io.Reader.of_string ~pos s in
      let rec_len = Rx_util.Bytes_io.Reader.u32 r in
      let crc = Rx_util.Bytes_io.Reader.u32 r in
      if pos + frame_overhead + rec_len <= len then begin
        let lsn = Int64.add t.base (Int64.of_int pos) in
        (* a bad CRC cannot happen for frames loaded by [open_file] (the
           torn tail was cut there), but the check protects in-process
           readers *)
        let record =
          decode_payload ~lsn ~crc (String.sub s (pos + frame_overhead) rec_len)
        in
        Rx_obs.Metrics.incr t.c_frames_read;
        f lsn record;
        loop (pos + frame_overhead + rec_len)
      end
    end
  in
  let from_off = Int64.to_int (Int64.sub from t.base) in
  loop (max 0 from_off)

(* Strict decode of a raw frame stream (as produced by [raw_since] or
   stored in an archive generation): every byte must belong to a complete,
   CRC-valid frame. Unlike [open_file]'s torn-tail healing, any defect
   raises — these streams are never legitimately torn (network frames are
   length-checked by the wire layer; archive generations are written
   whole). *)
let decode_frames ~base s =
  let len = String.length s in
  let rec loop pos acc =
    let lsn = Int64.add base (Int64.of_int pos) in
    if pos = len then List.rev acc
    else if pos + frame_overhead > len then raise (Corrupt_record { lsn })
    else begin
      let r = Rx_util.Bytes_io.Reader.of_string ~pos s in
      let rec_len = Rx_util.Bytes_io.Reader.u32 r in
      let crc = Rx_util.Bytes_io.Reader.u32 r in
      if rec_len < 0 || pos + frame_overhead + rec_len > len then
        raise (Corrupt_record { lsn });
      let record =
        decode_payload ~lsn ~crc (String.sub s (pos + frame_overhead) rec_len)
      in
      loop (pos + frame_overhead + rec_len) ((lsn, record) :: acc)
    end
  in
  loop 0 []

(* One frame, located by its LSN: a transaction's undo reads exactly its
   own records this way instead of decoding the whole log. Under [lock],
   so it may run while another thread's group-commit leader is
   flushing. *)
let read_at t lsn =
  Mutex.protect t.lock (fun () ->
      let pos = Int64.to_int (Int64.sub lsn t.base) in
      let avail = Buffer.length t.contents - pos - frame_overhead in
      if pos < 0 || avail < 0 then
        invalid_arg (Printf.sprintf "Log_manager.read_at: LSN %Ld not in the log" lsn);
      let r = Rx_util.Bytes_io.Reader.of_string (Buffer.sub t.contents pos frame_overhead) in
      let rec_len = Rx_util.Bytes_io.Reader.u32 r in
      let crc = Rx_util.Bytes_io.Reader.u32 r in
      if rec_len > avail then raise (Corrupt_record { lsn });
      Rx_obs.Metrics.incr t.c_frames_read;
      decode_payload ~lsn ~crc (Buffer.sub t.contents (pos + frame_overhead) rec_len))

let records_rev t =
  let acc = ref [] in
  iter t (fun lsn record -> acc := (lsn, record) :: !acc);
  !acc

let truncate t =
  Mutex.protect t.lock (fun () ->
      while t.flushing do
        Condition.wait t.flushed t.lock
      done;
      t.base <- tail_lsn_u t;
      Buffer.clear t.contents;
      t.durable <- 0;
      t.written <- 0;
      t.records <- 0;
      match t.backend with
      | Memory -> ()
      | File fd ->
          Unix.ftruncate fd header_size;
          write_header fd t.base;
          Unix.fsync fd)

let appended_bytes t = t.appended
let record_count t = t.records
let torn_tail_bytes t = t.torn_tail

let close t =
  match t.backend with Memory -> () | File fd -> Unix.close fd
