open Rx_xpath
open Rx_xmlstore

type range = { min : Value_index.bound option; max : Value_index.bound option }
type granularity = Docid_level | Nodeid_level of int

let range_of_compare (op : Ast.cmp) v =
  match op with
  | Ast.Eq -> Some { min = Some (v, true); max = Some (v, true) }
  | Ast.Lt -> Some { min = None; max = Some (v, false) }
  | Ast.Le -> Some { min = None; max = Some (v, true) }
  | Ast.Gt -> Some { min = Some (v, false); max = None }
  | Ast.Ge -> Some { min = Some (v, true); max = None }
  | Ast.Neq -> None

(* --- postings of one index use, newest first --- *)

let collect (index, range) ~keep =
  let acc = ref [] in
  Value_index.postings index ?min:range.min ?max:range.max (fun docid node ->
      if keep docid then acc := (docid, node) :: !acc);
  !acc

(* --- DocID bitsets over the first use's DocID span --- *)

type docset = { base : int; bits : Bytes.t }

let docset_of postings ~base ~top =
  let s = { base; bits = Bytes.make (((top - base) / 8) + 1) '\x00' } in
  List.iter
    (fun (docid, _) ->
      let b = docid - base in
      Bytes.set s.bits (b lsr 3)
        (Char.unsafe_chr (Char.code (Bytes.get s.bits (b lsr 3)) lor (1 lsl (b land 7)))))
    postings;
  s

let mem s docid =
  let b = docid - s.base in
  b >= 0
  && b lsr 3 < Bytes.length s.bits
  && Char.code (Bytes.get s.bits (b lsr 3)) land (1 lsl (b land 7)) <> 0

let docset_to_list s =
  let acc = ref [] in
  for b = (8 * Bytes.length s.bits) - 1 downto 0 do
    if mem s (s.base + b) then acc := (s.base + b) :: !acc
  done;
  !acc

(* --- sorted anchors --- *)

let compare_anchor ((d1 : int), n1) (d2, n2) =
  if d1 <> d2 then Int.compare d1 d2 else String.compare n1 n2

(* The anchors of [postings] whose DocID is in [live], sorted and
   duplicate-free; value nodes shallower than [level] anchor nothing. *)
let anchors postings live ~level =
  List.filter_map
    (fun (docid, node) ->
      if mem live docid && Node_id.level node >= level then
        Some (docid, Node_id.prefix_at_level node level)
      else None)
    postings
  |> List.sort_uniq compare_anchor

let intersect_sorted a b =
  let rec loop a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | x :: xs, y :: ys ->
        let c = compare_anchor x y in
        if c = 0 then loop xs ys (x :: acc)
        else if c < 0 then loop xs b acc
        else loop a ys acc
  in
  loop a b []

(* The AND kernel. The first use's postings seed a DocID bitset; each later
   use keeps only the postings whose DocID is still live and narrows the set
   to theirs. Anchors are computed for the final survivors alone, then the
   per-use sorted anchor lists are intersected. Every use is scanned on its
   own: same-index ranges are never merged, because a general comparison is
   existential per value node (see DESIGN.md). *)
let intersect granularity uses =
  let empty =
    match granularity with Docid_level -> `Docids [] | Nodeid_level _ -> `Anchors []
  in
  match uses with
  | [] -> empty
  | first_use :: later_uses ->
      let first = collect first_use ~keep:(fun _ -> true) in
      if first = [] then empty
      else begin
        let base, top =
          List.fold_left
            (fun (lo, hi) (d, _) -> (Int.min lo d, Int.max hi d))
            (max_int, min_int) first
        in
        let live = ref (docset_of first ~base ~top) in
        let later =
          List.map
            (fun use ->
              let p = collect use ~keep:(mem !live) in
              live := docset_of p ~base ~top;
              p)
            later_uses
        in
        match granularity with
        | Docid_level -> `Docids (docset_to_list !live)
        | Nodeid_level level ->
            let side p = anchors p !live ~level in
            `Anchors (List.fold_left (fun acc p -> intersect_sorted acc (side p)) (side first) later)
      end
