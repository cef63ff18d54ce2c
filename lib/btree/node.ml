(* Layout:
     16  u16 ncells
     18  u16 cell_start
     20  u16 frag
     22  u32 right
     26  u16 level
     28  reserved to 32
     32  cell pointer array (u16 per cell, sorted by key)
   Leaf cell:     varint klen | varint vlen | key | value
   Internal cell: varint klen | u32 child | key *)

let ptr_base = 32

let u16_get page off =
  (Char.code (Bytes.get page off) lsl 8) lor Char.code (Bytes.get page (off + 1))

let u16_set page off v =
  Bytes.set page off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set page (off + 1) (Char.chr (v land 0xff))

let u32_get page off = (u16_get page off lsl 16) lor u16_get page (off + 2)

let u32_set page off v =
  u16_set page off ((v lsr 16) land 0xffff);
  u16_set page (off + 2) (v land 0xffff)

let ncells page = u16_get page 16
let set_ncells page v = u16_set page 16 v
let cell_start page = u16_get page 18
let set_cell_start page v = u16_set page 18 v
let frag page = u16_get page 20
let set_frag page v = u16_set page 20 v
let right page = u32_get page 22
let set_right page v = u32_set page 22 v
let level page = u16_get page 26
let is_leaf page = level page = 0

let init page ~level =
  set_ncells page 0;
  set_cell_start page (Bytes.length page);
  set_frag page 0;
  set_right page 0;
  u16_set page 26 level

let ptr_at page i = u16_get page (ptr_base + (2 * i))
let set_ptr_at page i v = u16_set page (ptr_base + (2 * i)) v

(* Cell parsing reads lengths and offsets in place: top-level loops over
   explicit arguments, so a binary-search probe allocates nothing. *)
let rec varint_end page off =
  if Char.code (Bytes.get page off) < 0x80 then off + 1 else varint_end page (off + 1)

let rec varint_value page off shift acc =
  let b = Char.code (Bytes.get page off) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_value page (off + 1) (shift + 7) acc

(* Offset of the key bytes of the cell at [cell]; the key length is the
   cell's first varint. *)
let key_start page cell =
  let off = varint_end page cell in
  if is_leaf page then varint_end page off else off + 4

let key_at page i =
  let cell = ptr_at page i in
  Bytes.sub_string page (key_start page cell) (varint_value page cell 0 0)

let rec compare_bytes page off len key j =
  if j = len || j = String.length key then Int.compare len (String.length key)
  else
    let c = Char.compare (Bytes.get page (off + j)) key.[j] in
    if c <> 0 then c else compare_bytes page off len key (j + 1)

(* [String.compare (key_at page i) key] without copying the key out. *)
let compare_key_at page i key =
  let cell = ptr_at page i in
  compare_bytes page (key_start page cell) (varint_value page cell 0 0) key 0

let leaf_cell page i =
  let cell = ptr_at page i in
  let klen = varint_value page cell 0 0 in
  let off = varint_end page cell in
  let vlen = varint_value page off 0 0 in
  let off = varint_end page off in
  (Bytes.sub_string page off klen, Bytes.sub_string page (off + klen) vlen)

let internal_cell page i =
  let cell = ptr_at page i in
  let off = varint_end page cell in
  (Bytes.sub_string page (off + 4) (varint_value page cell 0 0), u32_get page off)

let set_internal_child page i child =
  u32_set page (varint_end page (ptr_at page i)) child

let cell_size_at page i =
  let cell = ptr_at page i in
  let klen = varint_value page cell 0 0 in
  let off = varint_end page cell in
  if is_leaf page then varint_end page off + klen + varint_value page off 0 0 - cell
  else off + 4 + klen - cell

(* first index in [lo, hi) whose key is >= [key] *)
let rec search_from page key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if compare_key_at page mid key < 0 then search_from page key (mid + 1) hi
    else search_from page key lo mid

let search page key =
  let n = ncells page in
  let i = search_from page key 0 n in
  (i < n && compare_key_at page i key = 0, i)

let free_space page =
  cell_start page - (ptr_base + (2 * ncells page)) + frag page

let compact page =
  let n = ncells page in
  let cells =
    List.init n (fun i ->
        let off = ptr_at page i in
        Bytes.sub page off (cell_size_at page i))
  in
  let pos = ref (Bytes.length page) in
  List.iteri
    (fun i cell ->
      let len = Bytes.length cell in
      pos := !pos - len;
      Bytes.blit cell 0 page !pos len;
      set_ptr_at page i !pos)
    cells;
  set_cell_start page !pos;
  set_frag page 0

(* Reserve [size] bytes of cell space plus one pointer slot; returns the cell
   offset or None if even compaction cannot make room. *)
let reserve page size =
  let needed_ptr = ptr_base + (2 * (ncells page + 1)) in
  if cell_start page - needed_ptr < size then begin
    if cell_start page - needed_ptr + frag page < size then None
    else begin
      compact page;
      if cell_start page - needed_ptr < size then None
      else begin
        let off = cell_start page - size in
        set_cell_start page off;
        Some off
      end
    end
  end
  else begin
    let off = cell_start page - size in
    set_cell_start page off;
    Some off
  end

let insert_ptr page i off =
  let n = ncells page in
  (* shift pointers [i, n) right by one *)
  for j = n downto i + 1 do
    set_ptr_at page j (ptr_at page (j - 1))
  done;
  set_ptr_at page i off;
  set_ncells page (n + 1)

let write_varint page off v =
  let rec loop off v =
    if v < 0x80 then begin
      Bytes.set page off (Char.chr v);
      off + 1
    end
    else begin
      Bytes.set page off (Char.chr (0x80 lor (v land 0x7f)));
      loop (off + 1) (v lsr 7)
    end
  in
  loop off v

let varint_size v =
  let rec loop v acc = if v < 0x80 then acc else loop (v lsr 7) (acc + 1) in
  loop v 1

let leaf_insert_at page i ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let size = varint_size klen + varint_size vlen + klen + vlen in
  match reserve page size with
  | None -> false
  | Some off ->
      let o = write_varint page off klen in
      let o = write_varint page o vlen in
      Bytes.blit_string key 0 page o klen;
      Bytes.blit_string value 0 page (o + klen) vlen;
      insert_ptr page i off;
      true

let internal_insert_at page i ~key ~child =
  let klen = String.length key in
  let size = varint_size klen + 4 + klen in
  match reserve page size with
  | None -> false
  | Some off ->
      let o = write_varint page off klen in
      u32_set page o child;
      Bytes.blit_string key 0 page (o + 4) klen;
      insert_ptr page i off;
      true

let delete_at page i =
  let n = ncells page in
  set_frag page (frag page + cell_size_at page i);
  for j = i to n - 2 do
    set_ptr_at page j (ptr_at page (j + 1))
  done;
  set_ncells page (n - 1)

let replace_value_at page i value =
  let key, old_value = leaf_cell page i in
  if String.length value = String.length old_value then begin
    (* overwrite in place *)
    let off = key_start page (ptr_at page i) + String.length key in
    Bytes.blit_string value 0 page off (String.length value);
    true
  end
  else begin
    delete_at page i;
    if leaf_insert_at page i ~key ~value then true
    else begin
      (* restore the old cell so the caller can split *)
      let restored = leaf_insert_at page i ~key ~value:old_value in
      assert restored;
      false
    end
  end

let max_entry_size ~page_size = (page_size - 64) / 4

let cells page =
  let n = ncells page in
  if is_leaf page then List.init n (fun i -> leaf_cell page i)
  else
    List.init n (fun i ->
        let key, child = internal_cell page i in
        let b = Bytes.create 4 in
        Bytes.set_int32_be b 0 (Int32.of_int child);
        (key, Bytes.to_string b))
