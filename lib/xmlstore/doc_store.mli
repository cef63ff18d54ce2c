(** Storage of XML column data (§3.1, Figure 2): an internal XML table
    (heap file of packed records) plus the NodeID index mapping logical
    (DocID, NodeID) positions to physical RIDs via interval upper
    endpoints.

    Traversal (§3.4) resolves proxy nodes through the NodeID index, so
    records can be placed anywhere — there are no physical links between
    records. *)

type t

type event = { id : Node_id.t option; token : Rx_xml.Token.t }
(** [id] is set on node-introducing tokens (start-element, text, comment,
    PI) and [None] on end-element. *)

val create :
  ?record_threshold:int ->
  ?packing_policy:Packer.policy ->
  Rx_storage.Buffer_pool.t ->
  Rx_xml.Name_dict.t ->
  t
(** [record_threshold] bounds packed-record entry sections (default 2048
    bytes) and [packing_policy] selects the grouping strategy — the two
    packing knobs ablated in E1. *)

val attach :
  ?record_threshold:int ->
  ?packing_policy:Packer.policy ->
  Rx_storage.Buffer_pool.t ->
  Rx_xml.Name_dict.t ->
  heap_header:int ->
  index_meta:int ->
  t

val heap_header : t -> int
val index_meta : t -> int
val dict : t -> Rx_xml.Name_dict.t

val metrics : t -> Rx_obs.Metrics.t
(** The registry of the underlying buffer pool — components layered on the
    store (executor, value indexes) report there. *)

val add_record_observer :
  t -> (docid:int -> rid:Rx_storage.Rid.t -> record:string -> unit) -> int
(** Called for every packed record as it is stored — how XPath value
    indexes generate their keys "per record" (§3.2). Returns a handle for
    {!remove_record_observer}. *)

val add_delete_observer :
  t -> (docid:int -> rid:Rx_storage.Rid.t -> record:string -> unit) -> int
(** Like {!add_record_observer}, for record deletion; returns a handle for
    {!remove_delete_observer}. *)

val remove_record_observer : t -> int -> unit
(** Detaches a record observer by handle (no-op if already removed) — how a
    dropped value index stops receiving maintenance callbacks. *)

val remove_delete_observer : t -> int -> unit
(** Detaches a delete observer by handle (no-op if already removed). *)

val insert_tokens : t -> docid:int -> Rx_xml.Token.t list -> unit
val insert_document : t -> docid:int -> string -> unit
(** Parses and stores. @raise Rx_xml.Parser.Parse_error on bad input. *)

val insert_tokens_bulk : t -> (int * Rx_xml.Token.t list) list -> unit
(** Bulk {!insert_tokens}: packs every [(docid, tokens)] document, places
    all resulting records through {!Rx_storage.Heap_file.insert_many} (one
    free-space probe per page, one record-count bump for the batch), and
    maintains the NodeID index. Record observers fire observer-major: each
    one runs over every stored record of the batch before the next, so
    index maintenance is batched per index rather than per document. *)

val delete_document : t -> docid:int -> unit
val mem : t -> docid:int -> bool

val events : t -> docid:int -> (event -> unit) -> unit
(** Whole-document traversal in document order. *)

(** Callbacks for the allocation-free {!scan} traversal. Strings passed to
    the callbacks ([name], [attrs], [content]…) are decoded from the packed
    record as usual, but no per-node event records, token values, or
    absolute node IDs are built. *)
type scan_sink = {
  scan_start_element :
    name:Rx_xml.Qname.t -> attrs:Rx_xml.Token.attr list -> unit;
  scan_end_element : unit -> unit;
  scan_text : content:string -> unit;
  scan_comment : content:string -> unit;
  scan_pi : target:string -> data:string -> unit;
}

val scan : t -> docid:int -> make_sink:(current:(unit -> Node_id.t) -> scan_sink) -> unit
(** Whole-document traversal like {!events}, but allocation-free per node:
    the current node's absolute ID is materialized only when the sink forces
    the [current] thunk — QuickXScan forces it only for nodes that match, so
    non-matching nodes cost no allocation. [current] is only valid inside
    the sink callback it was forced from (the cursor state it reads is
    mutated as the scan advances). *)

val set_readahead : t -> int -> unit
(** Sets the readahead window on the store's heap file and NodeID B+tree
    (see {!Rx_storage.Heap_file.set_readahead}). *)

val subtree_events : t -> docid:int -> Node_id.t -> (event -> unit) -> unit
(** Traversal of one subtree, located via the NodeID index — the §3.4
    path for access from an XPath value index. *)

val iter_records :
  t -> docid:int -> (rid:Rx_storage.Rid.t -> record:string -> unit) -> unit
(** Visits each packed record of the document once (index backfill). *)

(** {1 Sub-document updates}

    The operations §3.1's node-ID design exists for: existing node IDs are
    never renumbered ("stable upon update"), middle insertions extend the
    ID length ("always space for insertion in the middle"), and only the
    affected records are rewritten. Value-index observers fire for the old
    and new images, keeping XPath value indexes consistent. *)

type position =
  | Before of Node_id.t (** new sibling(s) before this node *)
  | After of Node_id.t (** new sibling(s) after this node *)
  | Last_child_of of Node_id.t (** append under this element *)

val insert_fragment : t -> docid:int -> position -> Rx_xml.Token.t list -> Node_id.t list
(** Inserts a balanced XML fragment (one or more top-level nodes, no
    document wrapper); returns the new top-level node IDs in order.
    @raise Invalid_argument if the anchor node does not exist, or
    [Last_child_of] names a non-element. *)

val update_text : t -> docid:int -> Node_id.t -> string -> unit
(** Replaces the content of a text node.
    @raise Invalid_argument if the node is not a text node. *)

val delete_subtree : t -> docid:int -> Node_id.t -> unit
(** Removes a node and its whole subtree (records that become empty are
    reclaimed). @raise Invalid_argument on the root element (delete the
    document instead) or a missing node. *)

val tokens : t -> docid:int -> Rx_xml.Token.t list
val serialize : t -> docid:int -> string

(** Cursor navigation with subtree skipping: [next_sibling] jumps over an
    entire subtree in O(1) within a record using the stored subtree
    length. *)
module Cursor : sig
  type cursor

  val root : t -> docid:int -> cursor option
  (** First document-level node. *)

  val find : t -> docid:int -> Node_id.t -> cursor option
  val node_id : cursor -> Node_id.t

  val entry : cursor -> Record_format.entry
  (** Resolved entry (never [Proxy]). *)

  val first_child : t -> cursor -> cursor option
  val next_sibling : t -> cursor -> cursor option
  val parent : t -> docid:int -> cursor -> cursor option
end

val data_page_count : t -> int
(** Number of heap data pages, O(1). The executor compares this against
    the [parallel_scan_min_pages] threshold to decide whether a partitioned
    multi-domain scan is worth spinning up. *)

type stats = {
  documents : int;
  records : int;
  index_entries : int;
  data_pages : int;
  overflow_pages : int;
  index_pages : int;
  record_bytes : int;
}

val stats : t -> stats
