(** Base tables (Figure 2): heap-stored rows with an implicit DocID column
    shared by all the table's XML columns, plus the DocID index "used for
    getting to base table rows from XPath value indexes". *)

type t

val create :
  Rx_storage.Buffer_pool.t -> columns:(string * Value.col_type) array -> t

val attach :
  Rx_storage.Buffer_pool.t ->
  columns:(string * Value.col_type) array ->
  heap_header:int ->
  docid_index_meta:int ->
  t

val heap_header : t -> int
val docid_index_meta : t -> int
val columns : t -> (string * Value.col_type) array
val column_index : t -> string -> int option

val check_row : t -> Value.t array -> unit
(** The validation {!insert} starts with, on its own: lets a caller reject
    a row before writing anything else that belongs with it.
    @raise Invalid_argument on arity or type mismatch. *)

val insert : t -> docid:int -> Value.t array -> Rx_storage.Rid.t
(** @raise Invalid_argument on arity or type mismatch. *)

val insert_many : t -> (int * Value.t array) list -> Rx_storage.Rid.t list
(** Batch {!insert}: validates every row up front, places all rows through
    {!Rx_storage.Heap_file.insert_many} (one journaled page image per filled
    page rather than per row), then maintains the DocID index. Returns the
    RIDs in row order.
    @raise Invalid_argument on any arity or type mismatch. *)

val fetch_by_docid : t -> int -> Value.t array option
val delete_by_docid : t -> int -> bool
val iter : (int -> Value.t array -> unit) -> t -> unit
(** In DocID order (via the DocID index). *)

val row_count : t -> int
