let default_page_size = 4096
let magic = "RXPAGER2"
let format_version = 1

exception Corrupt_page of { page_no : int; stored : int32; computed : int32 }

let () =
  Printexc.register_printer (function
    | Corrupt_page { page_no; stored; computed } ->
        Some
          (Printf.sprintf
             "Pager.Corrupt_page(page %d: stored checksum %08lx, computed %08lx)"
             page_no stored computed)
    | _ -> None)

(* sync: [pages]/[count] are mutated only by [alloc] (writer path, under
   [Database.write_lock]); concurrent reader domains take [io_lock] around
   every physical transfer, which also covers the seek+read pair on the
   shared file descriptor *)
type backend =
  | Mem of { mutable pages : bytes array; mutable count : int }
  | File of { fd : Unix.file_descr; mutable count : int }

type t = {
  page_size : int;
  backend : backend;
  io_lock : Mutex.t; (* serializes lseek+read/write on the shared fd *)
  mutable fault : Fault.t option;
      (* sync: installed before concurrent use (harness setup); plain field *)
  reads : int Atomic.t;
  writes : int Atomic.t;
  c_reads : Rx_obs.Metrics.counter;
  c_writes : Rx_obs.Metrics.counter;
  c_syncs : Rx_obs.Metrics.counter;
  c_corrupt : Rx_obs.Metrics.counter;
}

let with_io t f =
  Mutex.lock t.io_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.io_lock) f

let counters metrics =
  Rx_obs.Metrics.
    ( counter metrics "pager.reads",
      counter metrics "pager.writes",
      counter metrics "pager.syncs",
      counter metrics "pager.corrupt_pages" )

let page_size t = t.page_size

let page_count t =
  match t.backend with Mem m -> m.count | File f -> f.count

let set_fault t fault = t.fault <- fault

let create_in_memory ?(metrics = Rx_obs.Metrics.default) ?(page_size = default_page_size) () =
  let c_reads, c_writes, c_syncs, c_corrupt = counters metrics in
  let t =
    {
      page_size;
      backend = Mem { pages = Array.make 64 Bytes.empty; count = 0 };
      io_lock = Mutex.create ();
      fault = None;
      reads = Atomic.make 0;
      writes = Atomic.make 0;
      c_reads;
      c_writes;
      c_syncs;
      c_corrupt;
    }
  in
  (* reserve page 0 *)
  (match t.backend with
  | Mem m ->
      m.pages.(0) <- Bytes.make page_size '\000';
      m.count <- 1
  | File _ -> assert false);
  t

let pwrite_full fd buf off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec loop pos =
    if pos < len then begin
      let n = Unix.write fd buf pos (len - pos) in
      loop (pos + n)
    end
  in
  loop 0

let pread_full fd buf off =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let len = Bytes.length buf in
  let rec loop pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n = 0 then invalid_arg "Pager: short read";
      loop (pos + n)
    end
  in
  loop 0

(* Physical write of the (pre-stamped) page image, honouring the fault
   hook: a torn write transfers only a prefix of the image. *)
let write_page t page_no buf =
  Fault.wrap_write t.fault ~op:"pager.write" ~len:(Bytes.length buf)
    ~write:(fun n ->
      with_io t (fun () ->
          match t.backend with
          | Mem m -> Bytes.blit buf 0 m.pages.(page_no) 0 n
          | File f -> pwrite_full f.fd buf (page_no * t.page_size) n))

let stored_page_size path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let hdr = Bytes.make 16 '\000' in
      pread_full fd hdr 0;
      if Bytes.sub_string hdr 0 8 <> magic then
        failwith "Pager.stored_page_size: bad magic";
      Int32.to_int (Bytes.get_int32_be hdr 8))

let open_file ?(metrics = Rx_obs.Metrics.default) ?(page_size = default_page_size) path =
  let c_reads, c_writes, c_syncs, c_corrupt = counters metrics in
  let existed = Sys.file_exists path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  if existed && (Unix.fstat fd).Unix.st_size > 0 then begin
    let hdr = Bytes.make 16 '\000' in
    pread_full fd hdr 0;
    if Bytes.sub_string hdr 0 8 <> magic then failwith "Pager.open_file: bad magic";
    let stored = Int32.to_int (Bytes.get_int32_be hdr 8) in
    if stored <> page_size then
      failwith
        (Printf.sprintf "Pager.open_file: page size mismatch (%d vs %d)" stored
           page_size);
    let version = Char.code (Bytes.get hdr 12) in
    if version <> format_version then
      failwith
        (Printf.sprintf "Pager.open_file: unsupported format version %d" version);
    let size = (Unix.fstat fd).Unix.st_size in
    {
      page_size;
      backend = File { fd; count = size / page_size };
      io_lock = Mutex.create ();
      fault = None;
      reads = Atomic.make 0;
      writes = Atomic.make 0;
      c_reads;
      c_writes;
      c_syncs;
      c_corrupt;
    }
  end
  else begin
    let hdr = Bytes.make page_size '\000' in
    Bytes.blit_string magic 0 hdr 0 8;
    Bytes.set_int32_be hdr 8 (Int32.of_int page_size);
    Bytes.set hdr 12 (Char.chr format_version);
    pwrite_full fd hdr 0 page_size;
    {
      page_size;
      backend = File { fd; count = 1 };
      io_lock = Mutex.create ();
      fault = None;
      reads = Atomic.make 0;
      writes = Atomic.make 0;
      c_reads;
      c_writes;
      c_syncs;
      c_corrupt;
    }
  end

let alloc t =
  let zero = Bytes.make t.page_size '\000' in
  Page.stamp zero;
  let n =
    (* sync: backend growth under io_lock so reader domains never observe a
       half-swapped pages array or a count past the initialized prefix *)
    with_io t (fun () ->
        match t.backend with
        | Mem m ->
            if m.count >= Array.length m.pages then begin
              let bigger = Array.make (2 * Array.length m.pages) Bytes.empty in
              Array.blit m.pages 0 bigger 0 m.count;
              m.pages <- bigger
            end;
            let n = m.count in
            m.pages.(n) <- Bytes.make t.page_size '\000';
            m.count <- n + 1;
            n
        | File f ->
            let n = f.count in
            f.count <- n + 1;
            n)
  in
  write_page t n zero;
  n

let check_page_no t page_no =
  if page_no <= 0 || page_no >= page_count t then
    invalid_arg (Printf.sprintf "Pager: page %d out of range" page_no)

let read t page_no buf =
  check_page_no t page_no;
  Atomic.incr t.reads;
  Rx_obs.Metrics.incr t.c_reads;
  with_io t (fun () ->
      match t.backend with
      | Mem m -> Bytes.blit m.pages.(page_no) 0 buf 0 t.page_size
      | File f -> pread_full f.fd buf (page_no * t.page_size));
  if not (Page.verify buf) then begin
    Rx_obs.Metrics.incr t.c_corrupt;
    raise
      (Corrupt_page
         {
           page_no;
           stored = Bytes.get_int32_be buf 12;
           computed = Page.compute_checksum buf;
         })
  end

let read_run t ~first bufs =
  let n = Array.length bufs in
  if n > 0 then begin
    check_page_no t first;
    check_page_no t (first + n - 1);
    Atomic.fetch_and_add t.reads n |> ignore;
    Rx_obs.Metrics.add t.c_reads n;
    with_io t (fun () ->
        match t.backend with
        | Mem m ->
            Array.iteri
              (fun i buf -> Bytes.blit m.pages.(first + i) 0 buf 0 t.page_size)
              bufs
        | File f ->
            let run = Bytes.create (n * t.page_size) in
            pread_full f.fd run (first * t.page_size);
            Array.iteri
              (fun i buf -> Bytes.blit run (i * t.page_size) buf 0 t.page_size)
              bufs);
    Array.iteri
      (fun i buf ->
        if not (Page.verify buf) then begin
          Rx_obs.Metrics.incr t.c_corrupt;
          raise
            (Corrupt_page
               {
                 page_no = first + i;
                 stored = Bytes.get_int32_be buf 12;
                 computed = Page.compute_checksum buf;
               })
        end)
      bufs
  end

let write t page_no buf =
  check_page_no t page_no;
  Atomic.incr t.writes;
  Rx_obs.Metrics.incr t.c_writes;
  Page.stamp buf;
  write_page t page_no buf

let sync t =
  Rx_obs.Metrics.incr t.c_syncs;
  Fault.wrap_fsync t.fault ~op:"pager.sync" ~sync:(fun () ->
      match t.backend with Mem _ -> () | File f -> Unix.fsync f.fd)

let close t =
  match t.backend with Mem _ -> () | File f -> Unix.close f.fd

