(** Document-level multi-versioning (§5.1): readers never lock and never
    block — each version of a document keeps its own packed records and
    NodeID-index entries, so "a reader's deferred access is guaranteed to
    be successful".

    As in the paper, the versioned NodeID-index keys sort a document's
    versions newest-first: the physical key is (DocID, ver#, NodeID, RID)
    with the version component inverted, implemented by mapping each
    (docid, version) pair onto an internal document id of the shared
    {!Rx_xmlstore.Doc_store}. XPath value indexes are expected to index only
    the most recent committed version (the paper's scheme); observers fire
    only for current versions.

    Timestamps: a staged version carries timestamp [-1] (invisible to every
    snapshot); committed versions carry the timestamp they were published
    at, where [0] means "visible since forever" (the version predates
    version tracking) and [>= 1] is a real commit timestamp. *)

type t

val create :
  ?record_threshold:int -> Rx_storage.Buffer_pool.t -> Rx_xml.Name_dict.t -> t
(** Creates a versioned store over a fresh {!Rx_xmlstore.Doc_store}.
    [record_threshold] is passed through to the underlying store's packing
    policy. *)

val store : t -> Rx_xmlstore.Doc_store.t
(** The underlying document store (for wiring value-index observers). *)

type staged

val stage_write : t -> docid:int -> Rx_xml.Token.t list -> staged
(** Writes a new, not-yet-visible version of [docid] (a fresh insert if the
    document does not exist). Uncommitted versions are invisible to every
    snapshot. *)

val stage_delete : t -> docid:int -> staged

val staged_internal : staged -> int option
(** Internal document id holding the staged content; [None] for a staged
    deletion. Valid until the version is aborted. *)

val commit : ?at:int -> t -> staged list -> int
(** Publishes the staged versions atomically and returns the commit
    timestamp. Without [?at] a fresh timestamp is allocated; [~at:ts]
    publishes at an explicit (past or present) timestamp — used to retain
    the pre-image of a document that existed before version tracking began
    ([~at:0] = visible since forever). Chains stay sorted newest-first.

    @raise Invalid_argument if [at] is negative. *)

val abort : t -> staged list -> unit
(** Discards staged (never-committed) versions and their storage. *)

val snapshot : t -> int
(** Current timestamp; reads at this snapshot see all commits so far. *)

val version_at : t -> snapshot:int -> docid:int -> int option

val lookup_at :
  t ->
  snapshot:int ->
  docid:int ->
  [ `Version of int  (** internal docid of the visible version *)
  | `Tombstone  (** deleted as of the snapshot *)
  | `Invisible  (** tracked, but every committed version is newer *)
  | `Untracked  (** no committed version chain for this document *) ]
(** Distinguishes "deleted at this snapshot" from "not tracked here" —
    callers overlaying MVCC on a current-state store fall back to that
    store only on [`Untracked]. *)

val tracked : t -> docid:int -> bool
(** Whether any committed version (or tombstone) chain exists for
    [docid]. *)

val iter_tracked : t -> (int -> unit) -> unit
(** Iterates the docids with a non-empty committed chain (order
    unspecified). *)

val events_at :
  t -> snapshot:int -> docid:int -> (Rx_xmlstore.Doc_store.event -> unit) -> unit
(** @raise Invalid_argument if the document does not exist at the
    snapshot. *)

val serialize_at : t -> snapshot:int -> docid:int -> string

val gc : t -> oldest_snapshot:int -> int
(** Drops versions superseded before the oldest live snapshot; returns the
    number of versions reclaimed. *)

val clear : t -> unit
(** Drops every committed version chain and its storage — used when the
    last reader that could see an old version has ended. Staged versions
    held by callers are unaffected. *)

val version_count : t -> docid:int -> int
