(** Index-based access methods (§4.3, Table 2).

    - {e DocID list access}: an index scan yields the unique documents whose
      nodes satisfy a predicate — efficient for small documents.
    - {e NodeID list access}: yields (DocID, NodeID) pairs, truncated to the
      query's anchor element level when that level is fixed — efficient for
      large documents.
    - {e Filtering}: when the index path merely contains the query path, the
      returned list is a superset and the query must be re-evaluated on the
      candidates.
    - {e ANDing}: intersection of the DocID or NodeID lists of several
      index uses. If all participating indexes match their predicates
      exactly, the result is exact; if at least one is exact, NodeID-level
      ANDing still yields an exact list (the paper's rule — which holds at
      the anchor level).

    One kernel, {!intersect}, serves list access (one use) and ANDing (many)
    at both granularities. *)

type range = {
  min : Value_index.bound option;
  max : Value_index.bound option;
}

type granularity =
  | Docid_level
  | Nodeid_level of int  (** anchor level: depth of the predicates' element *)

val range_of_compare :
  Rx_xpath.Ast.cmp -> Rx_xml.Typed_value.t -> range option
(** The key range selected by [node op literal]; [None] for [!=], which an
    ordered index cannot serve with one range. *)

val intersect :
  granularity ->
  (Value_index.t * range) list ->
  [> `Docids of int list | `Anchors of (int * Rx_xmlstore.Node_id.t) list ]
(** The candidates satisfying every [(index, range)] use, each use scanned
    on its own with {!Value_index.postings}:
    - [Docid_level]: [`Docids], the sorted DocIDs with an entry in every
      use's range;
    - [Nodeid_level l]: [`Anchors], the sorted, duplicate-free
      [(docid, prefix_at_level node l)] pairs produced by every use; entries
      whose node is shallower than [l] are dropped.

    The first use's DocIDs seed a bitset; each later use keeps only postings
    whose DocID is still live, and anchors are built for the final survivors
    only. If the first use yields nothing, the later uses are not scanned.
    An empty [uses] list gives an empty result. *)
