(** B+tree index manager over buffer-pool pages.

    Keys and values are byte strings; keys are unique and ordered by
    [String.compare] (callers build composite keys with
    {!Rx_util.Key_codec}). Deletion is lazy (no rebalancing), as in several
    production engines; pages never become unreachable. All page mutations
    flow through {!Rx_storage.Buffer_pool.update} and are therefore
    journaled. *)

type t

val create : Rx_storage.Buffer_pool.t -> t
(** Allocates a meta page and an empty root leaf. *)

val attach : Rx_storage.Buffer_pool.t -> meta_page:int -> t
(** Re-opens a tree created earlier in the same pool from its meta page. *)

val meta_page : t -> int
(** The page holding the root pointer and entry count; persist it to
    {!attach} the tree again. *)

val insert : t -> key:string -> value:string -> unit
(** Inserts or replaces.
    @raise Invalid_argument if [key + value] exceeds {!Node.max_entry_size}. *)

val find : t -> string -> string option
(** The value stored under the key, if any. *)

val mem : t -> string -> bool
(** [find t key <> None]. *)

val delete : t -> string -> bool
(** [true] if the key was present. *)

val entry_count : t -> int
(** Live entries, kept in the meta page. *)

val height : t -> int
(** Levels from the root down to the leaves; 1 for a lone root leaf. *)

val iter_range :
  t ->
  ?lo:string ->
  ?hi:string ->
  (string -> string -> [ `Continue | `Stop ]) ->
  unit
(** In-order iteration over keys in [\[lo, hi)]; unbounded ends when
    omitted. Each leaf is copied under its latch only from the first key
    [>= lo] up to the first key [>= hi], and the callback runs after the
    latch is released. [btree.scan_len] observes the number of cells
    delivered to the callback. When a readahead window is set (see {!set_readahead}), the
    leaf-chain walk speculatively prefetches the pages numerically following
    each cache-missing leaf in one batched read. *)

val set_readahead : t -> int -> unit
(** Sets the leaf-chain readahead window used by {!iter_range} (and the
    range/prefix helpers built on it). Speculative: leaves split off
    consecutive page allocations, so the numeric successors of a leaf are
    usually the next leaves in the chain; misguesses are skipped by the pool
    or surface as [bufpool.readahead.wasted]. [n <= 1] (the default, 0)
    disables it. *)

val readahead : t -> int
(** Current leaf-chain readahead window. *)

val iter_prefix :
  t -> prefix:string -> (string -> string -> [ `Continue | `Stop ]) -> unit
(** {!iter_range} over the keys starting with [prefix]. *)

val fold_range :
  t -> ?lo:string -> ?hi:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a
(** {!iter_range} as a left fold over [(key, value)] in key order. *)

val to_list : t -> (string * string) list
(** Every entry in key order (tests and small trees). *)

val page_count : t -> int
(** Pages reachable from the root (meta page excluded) — index-size
    accounting for E1. *)

val check_invariants : t -> unit
(** Validates key order within nodes, separator bounds, level consistency
    and the leaf chain. @raise Failure on violation. *)
