(** B+tree node page layout.

    Cells live at the end of the page; a sorted cell-pointer array grows
    forward after the header, so binary search never moves cell bodies.
    Leaf cells hold (key, value); internal cells hold (key, child) with the
    convention that [child] covers keys strictly below [key], and the
    header's [right] field is the rightmost child (or, for leaves, the
    right-sibling page for range scans). *)

val init : bytes -> level:int -> unit
(** Formats [page] as an empty node at [level], with no right link. *)

val level : bytes -> int
(** Height above the leaves: 0 for a leaf, [n] for an internal node whose
    children sit at level [n - 1]. *)

val is_leaf : bytes -> bool
(** [level page = 0]. *)

val ncells : bytes -> int
(** Number of cells (keys) on the page. *)

val right : bytes -> int
(** Right sibling (leaf) or rightmost child (internal); 0 if none. *)

val set_right : bytes -> int -> unit

val key_at : bytes -> int -> string
(** The key of cell [i], leaf or internal; copies only the key bytes. *)

val leaf_cell : bytes -> int -> string * string
(** [(key, value)] of leaf cell [i], both copied out of the page. *)

val internal_cell : bytes -> int -> string * int
(** [(key, child)] of internal cell [i]; [child] covers keys below [key]. *)

val set_internal_child : bytes -> int -> int -> unit
(** Rewrites the child pointer of cell [i] in place. *)

val search : bytes -> string -> bool * int
(** [(found, i)] where [i] is the index of the first cell whose key is
    [>= key]; [found] reports an exact match at [i]. Compares in place:
    no probe copies a key or value out of the page. *)

val leaf_insert_at : bytes -> int -> key:string -> value:string -> bool
(** [false] if the node is full (caller must split). *)

val internal_insert_at : bytes -> int -> key:string -> child:int -> bool
val delete_at : bytes -> int -> unit
(** Removes cell [i]; its bytes become fragmentation, reclaimed by the next
    compaction. *)

val replace_value_at : bytes -> int -> string -> bool
(** Replaces leaf cell [i]'s value, in place when the length is unchanged.
    [false] (cell left as it was) if the new value does not fit; the caller
    must split. *)

val free_space : bytes -> int
(** Bytes available for new cells and pointers, counting fragmentation
    that a compaction would reclaim. *)

val max_entry_size : page_size:int -> int
(** Upper bound on [key + value] length such that any node can always hold
    at least four entries. *)

val cells : bytes -> (string * string) list
(** All cells in key order; for internal nodes the "value" is the u32 child
    in big-endian. *)
