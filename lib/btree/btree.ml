open Rx_storage

type t = {
  pool : Buffer_pool.t;
  meta : int;
  mutable readahead : int; (* leaf-chain readahead window; <= 1 disables *)
  c_lookups : Rx_obs.Metrics.counter;
  c_splits : Rx_obs.Metrics.counter;
  h_scan : Rx_obs.Metrics.histogram;
}

let set_readahead t n = t.readahead <- n
let readahead t = t.readahead

(* Speculative leaf-chain readahead: nodes split off consecutive allocations,
   so the numeric window after [page_no] usually contains the next leaves.
   [Buffer_pool.prefetch] skips cached/foreign pages cheaply; misguesses show
   up as bufpool.readahead.wasted. *)
let prefetch_chain t page_no =
  if t.readahead > 1 && page_no <> 0 && not (Buffer_pool.cached t.pool page_no)
  then
    Buffer_pool.prefetch t.pool
      (List.init t.readahead (fun i -> page_no + i))

let instruments pool =
  let metrics = Buffer_pool.metrics pool in
  Rx_obs.Metrics.
    ( counter metrics "btree.lookups",
      counter metrics "btree.node_splits",
      histogram metrics "btree.scan_len" )

(* Meta page layout: 16 u32 root; 20 u64 entry count. *)
let u32_get page off =
  (Char.code (Bytes.get page off) lsl 24)
  lor (Char.code (Bytes.get page (off + 1)) lsl 16)
  lor (Char.code (Bytes.get page (off + 2)) lsl 8)
  lor Char.code (Bytes.get page (off + 3))

let u32_set page off v =
  Bytes.set page off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set page (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set page (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set page (off + 3) (Char.chr (v land 0xff))

let meta_root page = u32_get page 16
let meta_set_root page v = u32_set page 16 v
let meta_count page = Int64.to_int (Bytes.get_int64_be page 20)
let meta_set_count page v = Bytes.set_int64_be page 20 (Int64.of_int v)

let new_node pool ~level =
  let kind = if level = 0 then Page.Btree_leaf else Page.Btree_internal in
  let page_no = Buffer_pool.alloc pool kind in
  Buffer_pool.update pool page_no (fun page -> Node.init page ~level);
  page_no

let create pool =
  let meta = Buffer_pool.alloc pool Page.Meta in
  let root = new_node pool ~level:0 in
  Buffer_pool.update pool meta (fun page ->
      meta_set_root page root;
      meta_set_count page 0);
  let c_lookups, c_splits, h_scan = instruments pool in
  { pool; meta; readahead = 0; c_lookups; c_splits; h_scan }

let attach pool ~meta_page =
  let c_lookups, c_splits, h_scan = instruments pool in
  { pool; meta = meta_page; readahead = 0; c_lookups; c_splits; h_scan }
let meta_page t = t.meta
let root t = Buffer_pool.with_page t.pool t.meta meta_root
let entry_count t = Buffer_pool.with_page t.pool t.meta meta_count

let bump_count t delta =
  Buffer_pool.update t.pool t.meta (fun page ->
      meta_set_count page (meta_count page + delta))

let height t =
  let rec depth page_no acc =
    let leaf, child =
      Buffer_pool.with_page t.pool page_no (fun page ->
          (Node.is_leaf page, Node.right page))
    in
    if leaf then acc
    else
      let child =
        if child <> 0 then child
        else
          Buffer_pool.with_page t.pool page_no (fun page ->
              snd (Node.internal_cell page 0))
      in
      depth child (acc + 1)
  in
  depth (root t) 1

(* --- insertion --- *)

(* Rebuild [page] as an internal node at [level] from an entry list and
   rightmost child. *)
let rebuild_internal page ~level entries ~rightmost =
  Node.init page ~level;
  List.iteri
    (fun i (key, child) ->
      if not (Node.internal_insert_at page i ~key ~child) then
        failwith "Btree: internal rebuild overflow")
    entries;
  Node.set_right page rightmost

let rebuild_leaf page cells ~sibling =
  Node.init page ~level:0;
  List.iteri
    (fun i (key, value) ->
      if not (Node.leaf_insert_at page i ~key ~value) then
        failwith "Btree: leaf rebuild overflow")
    cells;
  Node.set_right page sibling

let leaf_cells page =
  List.init (Node.ncells page) (fun i -> Node.leaf_cell page i)

let internal_entries page =
  List.init (Node.ncells page) (fun i -> Node.internal_cell page i)

(* Split a cell list roughly in half by byte size. *)
let split_point cells size_of =
  let total = List.fold_left (fun acc c -> acc + size_of c) 0 cells in
  let rec loop acc i = function
    | [] -> i
    | c :: rest ->
        let acc = acc + size_of c in
        if acc * 2 >= total then i + 1 else loop acc (i + 1) rest
  in
  let m = loop 0 0 cells in
  (* keep both sides non-empty *)
  max 1 (min m (List.length cells - 1))

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let insert_leaf t page_no ~key ~value =
  let fast, was_replace =
    Buffer_pool.update t.pool page_no (fun page ->
        let found, i = Node.search page key in
        if found then
          if Node.replace_value_at page i value then (true, true)
          else (false, true)
        else if Node.leaf_insert_at page i ~key ~value then (true, false)
        else (false, false))
  in
  if not was_replace && fast then bump_count t 1;
  if fast then None
  else begin
    (* split: gather cells, merge the pending entry, rebuild both halves *)
    Rx_obs.Metrics.incr t.c_splits;
    let cells, sibling =
      Buffer_pool.with_page t.pool page_no (fun page ->
          (leaf_cells page, Node.right page))
    in
    let cells =
      let rec merge = function
        | [] -> [ (key, value) ]
        | (k, v) :: rest ->
            let c = String.compare key k in
            if c < 0 then (key, value) :: (k, v) :: rest
            else if c = 0 then (key, value) :: rest
            else (k, v) :: merge rest
      in
      merge cells
    in
    let size_of (k, v) = String.length k + String.length v + 4 in
    let m = split_point cells size_of in
    let left = take m cells and right_cells = drop m cells in
    let right_no = new_node t.pool ~level:0 in
    Buffer_pool.update t.pool right_no (fun page ->
        rebuild_leaf page right_cells ~sibling);
    Buffer_pool.update t.pool page_no (fun page ->
        rebuild_leaf page left ~sibling:right_no);
    if not was_replace then bump_count t 1;
    match right_cells with
    | (sep, _) :: _ -> Some (sep, right_no)
    | [] -> assert false
  end

let rec insert_rec t page_no ~key ~value =
  let leaf = Buffer_pool.with_page t.pool page_no Node.is_leaf in
  if leaf then insert_leaf t page_no ~key ~value
  else begin
    let child_index, child =
      Buffer_pool.with_page t.pool page_no (fun page ->
          let found, i = Node.search page key in
          let idx = if found then i + 1 else i in
          let child =
            if idx < Node.ncells page then snd (Node.internal_cell page idx)
            else Node.right page
          in
          (idx, child))
    in
    match insert_rec t child ~key ~value with
    | None -> None
    | Some (sep, right_page) ->
        let fast =
          Buffer_pool.update t.pool page_no (fun page ->
              if Node.internal_insert_at page child_index ~key:sep ~child then begin
                if child_index + 1 < Node.ncells page then
                  Node.set_internal_child page (child_index + 1) right_page
                else Node.set_right page right_page;
                true
              end
              else false)
        in
        if fast then None
        else begin
          (* split the internal node in list-land, promoting the middle key *)
          Rx_obs.Metrics.incr t.c_splits;
          let entries, rightmost, level =
            Buffer_pool.with_page t.pool page_no (fun page ->
                (internal_entries page, Node.right page, Node.level page))
          in
          let entries, rightmost =
            (* splice (sep, child) at child_index and repoint the old route *)
            let n = List.length entries in
            if child_index = n then (entries @ [ (sep, child) ], right_page)
            else
              let entries =
                List.concat
                  (List.mapi
                     (fun i (k, c) ->
                       if i = child_index then [ (sep, child); (k, right_page) ]
                       else [ (k, c) ])
                     entries)
              in
              (entries, rightmost)
          in
          let size_of (k, _) = String.length k + 8 in
          let m = split_point entries size_of in
          let left = take m entries in
          let promote_key, promote_child =
            match drop m entries with e :: _ -> e | [] -> assert false
          in
          let right_entries = drop (m + 1) entries in
          let right_no = new_node t.pool ~level in
          Buffer_pool.update t.pool right_no (fun page ->
              rebuild_internal page ~level right_entries ~rightmost);
          Buffer_pool.update t.pool page_no (fun page ->
              rebuild_internal page ~level left ~rightmost:promote_child);
          Some (promote_key, right_no)
        end
  end

let insert t ~key ~value =
  let max_entry =
    Node.max_entry_size ~page_size:(Buffer_pool.page_size t.pool)
  in
  if String.length key + String.length value > max_entry then
    invalid_arg "Btree.insert: entry too large";
  match insert_rec t (root t) ~key ~value with
  | None -> ()
  | Some (sep, right_page) ->
      Rx_obs.Metrics.incr t.c_splits;
      let old_root = root t in
      let level =
        1 + Buffer_pool.with_page t.pool old_root Node.level
      in
      let new_root = new_node t.pool ~level in
      Buffer_pool.update t.pool new_root (fun page ->
          rebuild_internal page ~level [ (sep, old_root) ] ~rightmost:right_page);
      Buffer_pool.update t.pool t.meta (fun page -> meta_set_root page new_root)

(* --- lookup --- *)

let rec find_leaf t page_no key =
  let leaf = Buffer_pool.with_page t.pool page_no Node.is_leaf in
  if leaf then page_no
  else
    let child =
      Buffer_pool.with_page t.pool page_no (fun page ->
          let found, i = Node.search page key in
          let idx = if found then i + 1 else i in
          if idx < Node.ncells page then snd (Node.internal_cell page idx)
          else Node.right page)
    in
    find_leaf t child key

let find t key =
  Rx_obs.Metrics.incr t.c_lookups;
  let leaf = find_leaf t (root t) key in
  Buffer_pool.with_page t.pool leaf (fun page ->
      let found, i = Node.search page key in
      if found then Some (snd (Node.leaf_cell page i)) else None)

let mem t key = Option.is_some (find t key)

let delete t key =
  let leaf = find_leaf t (root t) key in
  let deleted =
    Buffer_pool.update t.pool leaf (fun page ->
        let found, i = Node.search page key in
        if found then begin
          Node.delete_at page i;
          true
        end
        else false)
  in
  if deleted then bump_count t (-1);
  deleted

(* --- iteration --- *)

let rec leftmost_leaf t page_no =
  let leaf = Buffer_pool.with_page t.pool page_no Node.is_leaf in
  if leaf then page_no
  else
    let child =
      Buffer_pool.with_page t.pool page_no (fun page ->
          if Node.ncells page > 0 then snd (Node.internal_cell page 0)
          else Node.right page)
    in
    leftmost_leaf t child

(* Copies cells [start, stop) of a leaf, where [stop] is the first slot
   whose key is [>= hi]: only what the scan can deliver leaves the latch. *)
let leaf_range page ~start ~hi =
  let n = Node.ncells page in
  let stop =
    match hi with None -> n | Some h -> Int.max start (snd (Node.search page h))
  in
  let rec copy i acc =
    if i < start then acc else copy (i - 1) (Node.leaf_cell page i :: acc)
  in
  (copy (stop - 1) [], stop < n)

let iter_range t ?lo ?hi f =
  Rx_obs.Metrics.incr t.c_lookups;
  let start_leaf =
    match lo with
    | Some key -> find_leaf t (root t) key
    | None -> leftmost_leaf t (root t)
  in
  let delivered = ref 0 in
  let rec deliver = function
    | [] -> `Next
    | (key, value) :: rest -> (
        incr delivered;
        match f key value with `Continue -> deliver rest | `Stop -> `Done)
  in
  (* the callback runs outside the page latch: it may re-enter the pool *)
  let rec walk page_no lo =
    if page_no <> 0 then begin
      prefetch_chain t page_no;
      let cells, reached_hi, sibling =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let start =
              match lo with None -> 0 | Some key -> snd (Node.search page key)
            in
            let cells, reached_hi = leaf_range page ~start ~hi in
            (cells, reached_hi, Node.right page))
      in
      match deliver cells with
      | `Next when not reached_hi -> walk sibling None
      | `Next | `Done -> ()
    end
  in
  walk start_leaf lo;
  Rx_obs.Metrics.observe t.h_scan !delivered

let next_prefix prefix =
  let b = Bytes.of_string prefix in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let iter_prefix t ~prefix f =
  match next_prefix prefix with
  | Some hi -> iter_range t ~lo:prefix ~hi f
  | None -> iter_range t ~lo:prefix f

let fold_range t ?lo ?hi ~init f =
  let acc = ref init in
  iter_range t ?lo ?hi (fun k v ->
      acc := f !acc k v;
      `Continue);
  !acc

let to_list t =
  List.rev (fold_range t ~init:[] (fun acc k v -> (k, v) :: acc))

let page_count t =
  let count = ref 0 in
  let rec visit page_no =
    incr count;
    let leaf = Buffer_pool.with_page t.pool page_no Node.is_leaf in
    if not leaf then begin
      let children =
        Buffer_pool.with_page t.pool page_no (fun page ->
            let base = List.map snd (internal_entries page) in
            if Node.right page <> 0 then base @ [ Node.right page ] else base)
      in
      List.iter visit children
    end
  in
  visit (root t);
  !count

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* returns (first_key, last_key) of the subtree, or None if empty *)
  let rec check page_no ~lo ~hi ~expected_level =
    Buffer_pool.with_page t.pool page_no (fun page ->
        (match expected_level with
        | Some l when Node.level page <> l ->
            fail "page %d: level %d, expected %d" page_no (Node.level page) l
        | _ -> ());
        let n = Node.ncells page in
        for i = 1 to n - 1 do
          if String.compare (Node.key_at page (i - 1)) (Node.key_at page i) >= 0
          then fail "page %d: keys out of order at %d" page_no i
        done;
        let in_bounds key =
          (match lo with
          | Some l when String.compare key l < 0 ->
              fail "page %d: key below subtree bound" page_no
          | _ -> ());
          match hi with
          | Some h when String.compare key h >= 0 ->
              fail "page %d: key above subtree bound" page_no
          | _ -> ()
        in
        for i = 0 to n - 1 do
          in_bounds (Node.key_at page i)
        done;
        if not (Node.is_leaf page) then begin
          if Node.right page = 0 then
            fail "page %d: internal node without rightmost child" page_no;
          let child_level = Some (Node.level page - 1) in
          let entries = internal_entries page in
          let rec loop lo_bound = function
            | [] ->
                check (Node.right page) ~lo:lo_bound ~hi ~expected_level:child_level
            | (key, child) :: rest ->
                check child ~lo:lo_bound ~hi:(Some key) ~expected_level:child_level;
                loop (Some key) rest
          in
          loop lo entries
        end)
  in
  check (root t) ~lo:None ~hi:None ~expected_level:None;
  (* leaf chain must produce all keys in sorted order and match the count *)
  let prev = ref None in
  let seen = ref 0 in
  iter_range t (fun k _ ->
      (match !prev with
      | Some p when String.compare p k >= 0 -> fail "leaf chain out of order"
      | _ -> ());
      prev := Some k;
      incr seen;
      `Continue);
  if !seen <> entry_count t then
    fail "entry count %d but leaf chain has %d" (entry_count t) !seen
