(** The external storage manager: a flat array of fixed-size pages, backed by
    either an in-memory store (for tests and benchmarks) or a file. Page 0 is
    reserved for pager metadata (magic ["RXPAGER2"], page size, format
    version); user pages start at 1.

    Integrity: every page image carries a CRC-32 in its header
    (see {!Page}); {!write} and {!alloc} stamp it immediately before the
    physical write and {!read} verifies it, raising {!Corrupt_page} rather
    than serving a damaged image. Torn or bit-flipped pages are therefore
    detected at the first read, never silently propagated.

    Durability: writes reach the OS immediately but are only durable after
    {!sync}. The buffer pool enforces the WAL rule (log durable up to the
    page LSN) before any page write reaches this layer.

    Concurrency: {!read} and {!read_run} are reentrant — concurrent reader
    domains are serialized on an internal I/O mutex around each physical
    transfer (the seek+read pair on the shared descriptor is atomic), and
    the I/O tallies are {!Atomic.t}.  Mutating operations ({!write},
    {!alloc}, {!sync}) remain single-writer: callers serialize them via
    the engine write lock, exactly as before. *)

type t

exception Corrupt_page of { page_no : int; stored : int32; computed : int32 }
(** Raised by {!read} when the stored page checksum does not match the
    image — the page was torn, bit-flipped, or never fully written. *)

val default_page_size : int

val create_in_memory : ?metrics:Rx_obs.Metrics.t -> ?page_size:int -> unit -> t
(** [metrics] receives the [pager.reads]/[pager.writes]/[pager.syncs]/
    [pager.corrupt_pages] counters (default: the global registry). *)

val open_file : ?metrics:Rx_obs.Metrics.t -> ?page_size:int -> string -> t
(** Opens (creating if absent) a file-backed pager.
    @raise Failure if the file exists with a different page size, a bad
    magic, or an unsupported format version. *)

val stored_page_size : string -> int
(** The page size recorded in an existing pager file's header, without
    opening it as a pager — lets offline tools (point-in-time restore)
    match a source database's geometry.
    @raise Failure on a bad magic. *)

val page_size : t -> int

val page_count : t -> int
(** Number of allocated pages, including the reserved page 0. *)

val alloc : t -> int
(** Allocates a fresh zeroed (and checksum-stamped) page and returns its
    number. The new page is written through to the backend but not synced. *)

val read : t -> int -> bytes -> unit
(** [read t page_no buf] fills [buf] (of length [page_size]) with the page
    image after verifying its checksum.
    @raise Corrupt_page if the stored checksum does not match. *)

val read_run : t -> first:int -> bytes array -> unit
(** [read_run t ~first bufs] fills [bufs.(i)] with the image of page
    [first + i] in one batched backend read (a single [pread] for the file
    backend), verifying each page's checksum. This is the readahead primitive:
    one seek amortized over a run of consecutive pages.
    @raise Corrupt_page on the first page whose checksum does not match;
    earlier pages in the run are already filled, later ones undefined.
    @raise Invalid_argument if any page of the run is out of range. *)

val write : t -> int -> bytes -> unit
(** Stamps the page checksum into [buf] and writes it through to the
    backend. Not durable until {!sync}. *)

val sync : t -> unit
(** Forces all completed writes to stable storage (fsync); a no-op for the
    in-memory backend. *)

val close : t -> unit
(** Releases the backing file descriptor {e without} flushing dirty
    buffer-pool state — callers flush first (or deliberately don't, to
    simulate a crash). *)

val set_fault : t -> Fault.t option -> unit
(** Installs (or clears) a fault-injection handle consulted by every
    physical write and sync. Testing only. *)

