open Rx_util
open Rx_storage
open Rx_xml

type event = { id : Node_id.t option; token : Token.t }

type t = {
  pool : Buffer_pool.t;
  heap : Heap_file.t;
  index : Rx_btree.Btree.t;
  dict : Name_dict.t;
  threshold : int;
  policy : Packer.policy;
  mutable record_observers :
    (int * (docid:int -> rid:Rid.t -> record:string -> unit)) list;
  mutable delete_observers :
    (int * (docid:int -> rid:Rid.t -> record:string -> unit)) list;
  mutable next_observer : int;
  mutable doc_count : int;
  mutable record_bytes : int;
  (* tiny cache: the record most recently fetched, keyed by rid; atomic so
     concurrent scan domains can share it — entries are self-validating
     (checked against the requested rid), so a lost update only costs a
     re-read *)
  last_fetch : (Rid.t * string) option Atomic.t;
}

let create ?(record_threshold = 2048) ?(packing_policy = Packer.Largest_first)
    pool dict =
  {
    pool;
    heap = Heap_file.create pool;
    index = Rx_btree.Btree.create pool;
    dict;
    threshold = record_threshold;
    policy = packing_policy;
    record_observers = [];
    delete_observers = [];
    next_observer = 0;
    doc_count = 0;
    record_bytes = 0;
    last_fetch = Atomic.make None;
  }

let metrics t = Buffer_pool.metrics t.pool

let attach ?(record_threshold = 2048) ?(packing_policy = Packer.Largest_first)
    pool dict ~heap_header ~index_meta =
  let t =
    {
      pool;
      heap = Heap_file.attach pool ~header_page:heap_header;
      index = Rx_btree.Btree.attach pool ~meta_page:index_meta;
      dict;
      threshold = record_threshold;
      policy = packing_policy;
      record_observers = [];
      delete_observers = [];
      next_observer = 0;
      doc_count = 0;
      record_bytes = 0;
      last_fetch = Atomic.make None;
    }
  in
  (* recount documents from distinct docids in the index *)
  let last = ref None in
  Rx_btree.Btree.iter_range t.index (fun key _ ->
      let docid, _ = Key_codec.decode_int64 key 0 in
      if !last <> Some docid then begin
        last := Some docid;
        t.doc_count <- t.doc_count + 1
      end;
      `Continue);
  t

let heap_header t = Heap_file.header_page t.heap
let index_meta t = Rx_btree.Btree.meta_page t.index
let dict t = t.dict

let fresh_observer_id t =
  let id = t.next_observer in
  t.next_observer <- id + 1;
  id

let add_record_observer t f =
  let id = fresh_observer_id t in
  t.record_observers <- t.record_observers @ [ (id, f) ];
  id

let add_delete_observer t f =
  let id = fresh_observer_id t in
  t.delete_observers <- t.delete_observers @ [ (id, f) ];
  id

let remove_record_observer t id =
  t.record_observers <- List.filter (fun (i, _) -> i <> id) t.record_observers

let remove_delete_observer t id =
  t.delete_observers <- List.filter (fun (i, _) -> i <> id) t.delete_observers

let index_key docid node_id =
  let buf = Buffer.create 16 in
  Key_codec.encode_int64 buf (Int64.of_int docid);
  Buffer.add_string buf node_id;
  Buffer.contents buf

let rid_value rid =
  let w = Bytes_io.Writer.create ~capacity:6 () in
  Rid.encode w rid;
  Bytes_io.Writer.contents w

let rid_of_value v = Rid.decode (Bytes_io.Reader.of_string v)

let store_record t ~docid record =
  let rid = Heap_file.insert t.heap record in
  t.record_bytes <- t.record_bytes + String.length record;
  List.iter
    (fun endpoint ->
      Rx_btree.Btree.insert t.index
        ~key:(index_key docid endpoint)
        ~value:(rid_value rid))
    (Record_format.interval_endpoints record);
  List.iter (fun (_, f) -> f ~docid ~rid ~record) t.record_observers

let insert_tokens t ~docid tokens =
  Packer.pack ~policy:t.policy ~threshold:t.threshold
    ~emit:(fun ~min_id:_ ~record -> store_record t ~docid record)
    tokens;
  t.doc_count <- t.doc_count + 1

let insert_tokens_bulk t docs =
  (* Pack every document first, collecting (docid, record) in emit order,
     then place the whole batch in the heap in one pass so the free-space
     map is probed per page rather than per record. *)
  let staged = ref [] in
  List.iter
    (fun (docid, tokens) ->
      Packer.pack ~policy:t.policy ~threshold:t.threshold
        ~emit:(fun ~min_id:_ ~record -> staged := (docid, record) :: !staged)
        tokens)
    docs;
  let staged = List.rev !staged in
  let rids = Heap_file.insert_many t.heap (List.map snd staged) in
  let triples =
    List.map2
      (fun (docid, record) rid ->
        t.record_bytes <- t.record_bytes + String.length record;
        List.iter
          (fun endpoint ->
            Rx_btree.Btree.insert t.index
              ~key:(index_key docid endpoint)
              ~value:(rid_value rid))
          (Record_format.interval_endpoints record);
        (docid, rid, record))
      staged rids
  in
  t.doc_count <- t.doc_count + List.length docs;
  (* observer-major: each observer (one index) sees the whole batch in
     one run *)
  List.iter
    (fun (_, f) ->
      List.iter (fun (docid, rid, record) -> f ~docid ~rid ~record) triples)
    t.record_observers

let insert_document t ~docid src = insert_tokens t ~docid (Parser.parse t.dict src)

let fetch t rid =
  match Atomic.get t.last_fetch with
  | Some (r, data) when Rid.equal r rid -> data
  | _ ->
      let data = Heap_file.read t.heap rid in
      Atomic.set t.last_fetch (Some (rid, data));
      data

(* First index entry at or after (docid, node_id); None if the next entry
   belongs to another document. *)
let seek t ~docid node_id =
  let lo = index_key docid node_id in
  let hi = index_key (docid + 1) Node_id.root in
  let result = ref None in
  Rx_btree.Btree.iter_range t.index ~lo ~hi (fun key value ->
      let entry_docid, pos = Key_codec.decode_int64 key 0 in
      if Int64.to_int entry_docid = docid then
        result :=
          Some (String.sub key pos (String.length key - pos), rid_of_value value);
      `Stop);
  !result

let mem t ~docid = Option.is_some (seek t Node_id.root ~docid)

let delete_document t ~docid =
  let keys = ref [] in
  let rids = Hashtbl.create 8 in
  Rx_btree.Btree.iter_prefix t.index ~prefix:(index_key docid Node_id.root)
    (fun key value ->
      keys := key :: !keys;
      Hashtbl.replace rids (rid_of_value value) ();
      `Continue);
  if !keys = [] then invalid_arg (Printf.sprintf "Doc_store: no document %d" docid);
  (* observers run while the NodeID index is still intact so they can
     traverse the document (e.g. to recompute split-subtree values) *)
  let records =
    Hashtbl.fold (fun rid () acc -> (rid, Heap_file.read t.heap rid) :: acc) rids []
  in
  List.iter
    (fun (rid, record) ->
      List.iter (fun (_, f) -> f ~docid ~rid ~record) t.delete_observers)
    records;
  List.iter (fun key -> ignore (Rx_btree.Btree.delete t.index key)) !keys;
  List.iter
    (fun (rid, record) ->
      t.record_bytes <- t.record_bytes - String.length record;
      Heap_file.delete t.heap rid)
    records;
  Atomic.set t.last_fetch None;
  t.doc_count <- t.doc_count - 1

(* Resolve a proxy: the record containing node [abs], and its top-level
   entry for [abs]. *)
let resolve t ~docid abs =
  match seek t ~docid abs with
  | None -> invalid_arg "Doc_store: dangling proxy"
  | Some (_, rid) ->
      let record = fetch t rid in
      let header, first = Record_format.decode_header record in
      let rel_path_len = String.length abs - String.length header.Record_format.context in
      let rel = String.sub abs (String.length header.Record_format.context) rel_path_len in
      (* find the top-level entry with this relative id *)
      let rec find off =
        if off >= String.length record then
          invalid_arg "Doc_store: proxy target not in record"
        else
          let entry, next = Record_format.decode_entry record off in
          if Record_format.entry_rel entry = rel then (record, entry)
          else find next
      in
      find first

(* Emit events for one entry (resolving proxies), depth-first. *)
let rec emit_entry t ~docid record base entry f =
  let rel = Record_format.entry_rel entry in
  let abs = Node_id.append base rel in
  match entry with
  | Record_format.Proxy _ ->
      let record', entry' = resolve t ~docid abs in
      (match entry' with
      | Record_format.Proxy _ -> invalid_arg "Doc_store: proxy chain"
      | _ -> emit_entry t ~docid record' base entry' f)
  | Record_format.Element { name; attrs; ns_decls; _ } ->
      f { id = Some abs; token = Token.Start_element { name; attrs; ns_decls } };
      Record_format.iter_children record entry (fun child ->
          emit_entry t ~docid record abs child f);
      f { id = None; token = Token.End_element }
  | Record_format.Text { content; annot; _ } ->
      f { id = Some abs; token = Token.Text { content; annot } }
  | Record_format.Comment { content; _ } ->
      f { id = Some abs; token = Token.Comment content }
  | Record_format.Pi { target; data; _ } ->
      f { id = Some abs; token = Token.Pi { target; data } }

let root_record t ~docid =
  match seek t ~docid Node_id.root with
  | None -> None
  | Some (_, rid) ->
      let record = fetch t rid in
      let header, first = Record_format.decode_header record in
      if not (Node_id.is_root header.Record_format.context) then
        invalid_arg "Doc_store: root record has non-root context";
      Some (record, first)

let events t ~docid f =
  match root_record t ~docid with
  | None -> invalid_arg (Printf.sprintf "Doc_store: no document %d" docid)
  | Some (record, first) ->
      f { id = None; token = Token.Start_document };
      let rec loop off =
        if off < String.length record then begin
          let entry, next = Record_format.decode_entry record off in
          emit_entry t ~docid record Node_id.root entry f;
          loop next
        end
      in
      loop first;
      f { id = None; token = Token.End_document }

(* --- allocation-free scan --- *)

type scan_sink = {
  scan_start_element : name:Qname.t -> attrs:Token.attr list -> unit;
  scan_end_element : unit -> unit;
  scan_text : content:string -> unit;
  scan_comment : content:string -> unit;
  scan_pi : target:string -> data:string -> unit;
}

(* Unlike [events], no per-node event/token records or absolute node IDs are
   built: the current node's ID is held as mutable (base, rel) cursor state
   and materialized only when the sink forces the [current] thunk — i.e.
   only for nodes the query actually matches. Absolute IDs are still built
   for elements with children (the recursion base) and proxy resolution. *)
let scan t ~docid ~make_sink =
  match root_record t ~docid with
  | None -> invalid_arg (Printf.sprintf "Doc_store: no document %d" docid)
  | Some (record0, first) ->
      let cur_base = ref Node_id.root in
      let cur_rel = ref Node_id.first_child_rel in
      let current () = Node_id.append !cur_base !cur_rel in
      let sink = make_sink ~current in
      let rec emit record base entry =
        match entry with
        | Record_format.Proxy { rel } ->
            let abs = Node_id.append base rel in
            let record', entry' = resolve t ~docid abs in
            (match entry' with
            | Record_format.Proxy _ -> invalid_arg "Doc_store: proxy chain"
            | _ -> emit record' base entry')
        | Record_format.Element { rel; name; attrs; n_children; children_off; children_len; _ }
          ->
            cur_base := base;
            cur_rel := rel;
            sink.scan_start_element ~name ~attrs;
            if n_children > 0 then begin
              let abs = Node_id.append base rel in
              walk record abs children_off (children_off + children_len)
            end;
            sink.scan_end_element ()
        | Record_format.Text { rel; content; _ } ->
            cur_base := base;
            cur_rel := rel;
            sink.scan_text ~content
        | Record_format.Comment { rel; content } ->
            cur_base := base;
            cur_rel := rel;
            sink.scan_comment ~content
        | Record_format.Pi { rel; target; data } ->
            cur_base := base;
            cur_rel := rel;
            sink.scan_pi ~target ~data
      and walk record base off limit =
        if off < limit then begin
          let entry, next = Record_format.decode_entry record off in
          emit record base entry;
          walk record base next limit
        end
      in
      walk record0 Node_id.root first (String.length record0)

let set_readahead t n =
  Heap_file.set_readahead t.heap n;
  Rx_btree.Btree.set_readahead t.index n

(* --- sub-document updates --- *)

type position = Before of Node_id.t | After of Node_id.t | Last_child_of of Node_id.t

(* Replace record [rid] (image [old_record]) with the re-encoded [nodes];
   an empty node list reclaims the record. NodeID-index entries and value
   indexes are maintained through the usual per-record paths. *)
let rewrite_record t ~docid ~rid ~old_record header nodes =
  List.iter (fun (_, f) -> f ~docid ~rid ~record:old_record) t.delete_observers;
  List.iter
    (fun endpoint ->
      ignore (Rx_btree.Btree.delete t.index (index_key docid endpoint)))
    (Record_format.interval_endpoints old_record);
  t.record_bytes <- t.record_bytes - String.length old_record;
  Atomic.set t.last_fetch None;
  if nodes = [] then Heap_file.delete t.heap rid
  else begin
    let record = Record_tree.encode header nodes in
    let rid' = Heap_file.update t.heap rid record in
    t.record_bytes <- t.record_bytes + String.length record;
    List.iter
      (fun endpoint ->
        Rx_btree.Btree.insert t.index
          ~key:(index_key docid endpoint)
          ~value:(rid_value rid'))
      (Record_format.interval_endpoints record);
    List.iter (fun (_, f) -> f ~docid ~rid:rid' ~record) t.record_observers
  end

(* The record where [abs] is stored inline, its decoded form, and the
   relative path of [abs] under the record's context. *)
let locate_inline t ~docid abs =
  match seek t ~docid abs with
  | None -> None
  | Some (_, rid) ->
      let record = fetch t rid in
      let header, _ = Record_format.decode_header record in
      let context = header.Record_format.context in
      if not (Node_id.is_ancestor_or_self ~ancestor:context abs) then None
      else begin
        let rel_path =
          Node_id.components
            (String.sub abs (String.length context)
               (String.length abs - String.length context))
        in
        let _, nodes = Record_tree.decode record in
        Some (rid, record, header, nodes, rel_path)
      end

(* Remove the subtree entry for [abs] from the record where it is inline,
   then chase any proxies it contained. *)
let rec purge_subtree t ~docid abs =
  match locate_inline t ~docid abs with
  | None -> invalid_arg "Doc_store: node to purge not found"
  | Some (rid, record, header, nodes, rel_path) -> (
      let removed = ref None in
      match
        Record_tree.map_subtree nodes rel_path (function
          | Some e ->
              removed := Some e;
              []
          | None -> [])
      with
      | Some nodes' when !removed <> None ->
          rewrite_record t ~docid ~rid ~old_record:record header nodes';
          let parent_abs = Option.value ~default:Node_id.root (Node_id.parent abs) in
          List.iter
            (fun ppath ->
              purge_subtree t ~docid (parent_abs ^ String.concat "" ppath))
            (Record_tree.collect_proxies (Option.get !removed))
      | _ -> invalid_arg "Doc_store: node to purge not found")

(* The record holding the child-entry list of [parent_abs] (the record of
   the parent's own element entry; the root record when the parent is the
   document). *)
let locate_children t ~docid parent_abs =
  if Node_id.is_root parent_abs then
    match seek t ~docid Node_id.root with
    | None -> None
    | Some (_, rid) ->
        let record = fetch t rid in
        let header, _ = Record_format.decode_header record in
        let _, nodes = Record_tree.decode record in
        Some (rid, record, header, nodes, [])
  else locate_inline t ~docid parent_abs

let delete_subtree t ~docid node_id =
  if Node_id.is_root node_id then
    invalid_arg "Doc_store.delete_subtree: cannot delete the document node";
  let parent_abs = Option.value ~default:Node_id.root (Node_id.parent node_id) in
  let last = Option.get (Node_id.last_component node_id) in
  match locate_children t ~docid parent_abs with
  | None -> invalid_arg "Doc_store.delete_subtree: node not found"
  | Some (rid, record, header, nodes, parent_rel_path) -> (
      let removed = ref None in
      match
        Record_tree.map_subtree nodes (parent_rel_path @ [ last ]) (function
          | Some e ->
              removed := Some e;
              []
          | None -> [])
      with
      | Some nodes' when !removed <> None ->
          rewrite_record t ~docid ~rid ~old_record:record header nodes';
          List.iter
            (fun ppath -> purge_subtree t ~docid (parent_abs ^ String.concat "" ppath))
            (Record_tree.collect_proxies (Option.get !removed))
      | _ -> invalid_arg "Doc_store.delete_subtree: node not found")

let update_text t ~docid node_id content =
  match locate_inline t ~docid node_id with
  | None -> invalid_arg "Doc_store.update_text: node not found"
  | Some (rid, record, header, nodes, rel_path) -> (
      let ok = ref false in
      match
        Record_tree.map_subtree nodes rel_path (function
          | Some (Record_tree.Text te) ->
              ok := true;
              [ Record_tree.Text { te with content } ]
          | Some _ -> invalid_arg "Doc_store.update_text: not a text node"
          | None -> [])
      with
      | Some nodes' when !ok ->
          rewrite_record t ~docid ~rid ~old_record:record header nodes'
      | _ -> invalid_arg "Doc_store.update_text: node not found")

(* count the top-level nodes of a balanced fragment *)
let top_level_count tokens =
  let depth = ref 0 and count = ref 0 in
  List.iter
    (fun token ->
      match token with
      | Token.Start_document | Token.End_document -> ()
      | Token.Start_element _ ->
          if !depth = 0 then incr count;
          incr depth
      | Token.End_element -> decr depth
      | Token.Text _ | Token.Comment _ | Token.Pi _ -> if !depth = 0 then incr count)
    tokens;
  if !depth <> 0 then invalid_arg "Doc_store.insert_fragment: unbalanced fragment";
  !count

(* fresh relative ids strictly between [lo] and [hi] (either optional) *)
let fresh_rels ~lo ~hi n =
  match (lo, hi) with
  | Some lo, Some hi ->
      let rec gen cur n acc =
        if n = 0 then List.rev acc
        else
          let r = Node_id.between_rel cur hi in
          gen r (n - 1) (r :: acc)
      in
      gen lo n []
  | Some lo, None ->
      let rec gen cur n acc =
        if n = 0 then List.rev acc
        else
          let r = Node_id.next_sibling_rel cur in
          gen r (n - 1) (r :: acc)
      in
      gen lo n []
  | None, Some hi ->
      (* generate backwards, closest to hi last *)
      let rec gen cur n acc =
        if n = 0 then acc
        else
          let r = Node_id.before_rel cur in
          gen r (n - 1) (r :: acc)
      in
      gen hi n []
  | None, None ->
      List.init n (fun i -> Node_id.nth_sibling_rel i)

let insert_fragment t ~docid position tokens =
  let n = top_level_count tokens in
  if n = 0 then invalid_arg "Doc_store.insert_fragment: empty fragment";
  let parent_abs, anchor_last =
    match position with
    | Before anchor | After anchor ->
        if Node_id.is_root anchor then
          invalid_arg "Doc_store.insert_fragment: anchor cannot be the document";
        ( Option.value ~default:Node_id.root (Node_id.parent anchor),
          Some (Option.get (Node_id.last_component anchor)) )
    | Last_child_of parent -> (parent, None)
  in
  match locate_children t ~docid parent_abs with
  | None -> invalid_arg "Doc_store.insert_fragment: parent not found"
  | Some (rid, record, header, nodes, parent_rel_path) ->
      (* find the parent's child list to compute neighbour rel ids *)
      let children =
        if parent_rel_path = [] && Node_id.is_root parent_abs then Some nodes
        else
          let found = ref None in
          ignore
            (Record_tree.map_subtree nodes parent_rel_path (function
              | Some (Record_tree.Element { children; _ } as e) ->
                  found := Some children;
                  [ e ]
              | Some e -> [ e ]
              | None -> []));
          !found
      in
      (match children with
      | None -> invalid_arg "Doc_store.insert_fragment: parent is not an element"
      | Some children ->
          let rels_of = List.map Record_tree.node_rel children in
          let lo, hi =
            match (position, anchor_last) with
            | Last_child_of _, _ ->
                ((match List.rev rels_of with last :: _ -> Some last | [] -> None), None)
            | Before _, Some a ->
                if not (List.mem a rels_of) then
                  invalid_arg "Doc_store.insert_fragment: anchor not found";
                let rec prev acc = function
                  | [] -> acc
                  | r :: _ when r = a -> acc
                  | r :: rest -> prev (Some r) rest
                in
                (prev None rels_of, Some a)
            | After _, Some a ->
                if not (List.mem a rels_of) then
                  invalid_arg "Doc_store.insert_fragment: anchor not found";
                let rec next = function
                  | [] -> None
                  | r :: rest when r = a -> (
                      match rest with nr :: _ -> Some nr | [] -> None)
                  | _ :: rest -> next rest
                in
                (Some a, next rels_of)
            | (Before _ | After _), None -> assert false
          in
          let rels = fresh_rels ~lo ~hi n in
          let fresh_nodes = Record_tree.of_tokens ~base_rel:rels tokens in
          let target_path =
            (* splice by inserting at the sorted position among siblings;
               map_subtree's insertion form needs a "missing last
               component": use the first fresh rel *)
            parent_rel_path @ [ List.hd rels ]
          in
          (match
             Record_tree.map_subtree nodes target_path (function
               | Some _ -> invalid_arg "Doc_store.insert_fragment: id collision"
               | None -> fresh_nodes)
           with
          | Some nodes' -> rewrite_record t ~docid ~rid ~old_record:record header nodes'
          | None -> invalid_arg "Doc_store.insert_fragment: parent not found");
          List.map (fun rel -> Node_id.append parent_abs rel) rels)

let iter_records t ~docid f =
  let rids = Hashtbl.create 8 in
  Rx_btree.Btree.iter_prefix t.index ~prefix:(index_key docid Node_id.root)
    (fun _ value ->
      Hashtbl.replace rids (rid_of_value value) ();
      `Continue);
  Hashtbl.iter (fun rid () -> f ~rid ~record:(Heap_file.read t.heap rid)) rids

let tokens t ~docid =
  let acc = ref [] in
  events t ~docid (fun e -> acc := e.token :: !acc);
  List.rev !acc

let serialize t ~docid = Serializer.to_string t.dict (tokens t ~docid)

(* --- cursor --- *)

module Cursor = struct
  (* A cursor points at an entry's logical position in its parent's children
     sequence: [record] is the record holding that position (the proxy's
     record when the subtree lives elsewhere); [resolved] caches the real
     record/entry pair. *)
  type cursor = {
    docid : int;
    record : string;
    off : int;
    limit : int;
    base : Node_id.t;
    entry : Record_format.entry; (* as stored at off; may be Proxy *)
    resolved : string * Record_format.entry; (* never Proxy *)
  }

  let make t ~docid ~record ~off ~limit ~base =
    let entry, _ = Record_format.decode_entry record off in
    let abs = Node_id.append base (Record_format.entry_rel entry) in
    let resolved =
      match entry with
      | Record_format.Proxy _ -> resolve t ~docid abs
      | _ -> (record, entry)
    in
    { docid; record; off; limit; base; entry; resolved }

  let node_id c = Node_id.append c.base (Record_format.entry_rel c.entry)
  let entry c = snd c.resolved

  let root t ~docid =
    match root_record t ~docid with
    | None -> None
    | Some (record, first) ->
        if first >= String.length record then None
        else
          Some
            (make t ~docid ~record ~off:first ~limit:(String.length record)
               ~base:Node_id.root)

  let first_child t c =
    match snd c.resolved with
    | Record_format.Element { n_children; children_off; children_len; _ }
      when n_children > 0 ->
        let record = fst c.resolved in
        Some
          (make t ~docid:c.docid ~record ~off:children_off
             ~limit:(children_off + children_len) ~base:(node_id c))
    | _ -> None

  let next_sibling t c =
    let _, next = Record_format.decode_entry c.record c.off in
    if next < c.limit then
      Some (make t ~docid:c.docid ~record:c.record ~off:next ~limit:c.limit ~base:c.base)
    else None

  (* Walk down from the containing record's context to the target id. *)
  let find t ~docid target =
    if Node_id.is_root target then None
    else
      match seek t ~docid target with
      | None -> None
      | Some (_, rid) ->
          let record = fetch t rid in
          let header, first = Record_format.decode_header record in
          let context = header.Record_format.context in
          if not (Node_id.is_ancestor_or_self ~ancestor:context target) then None
          else begin
            let rel_path =
              Node_id.components
                (String.sub target (String.length context)
                   (String.length target - String.length context))
            in
            let rec descend record base off limit = function
              | [] -> None
              | comp :: rest -> (
                  (* locate the entry with relative id [comp] in this
                     children sequence *)
                  let rec scan off =
                    if off >= limit then None
                    else
                      let entry, next = Record_format.decode_entry record off in
                      if Record_format.entry_rel entry = comp then Some (entry, off)
                      else scan next
                  in
                  match scan off with
                  | None -> None
                  | Some (entry, off) ->
                      if rest = [] then
                        Some (make t ~docid ~record ~off ~limit ~base)
                      else
                        let abs = Node_id.append base comp in
                        let record, entry =
                          match entry with
                          | Record_format.Proxy _ -> resolve t ~docid abs
                          | _ -> (record, entry)
                        in
                        (match entry with
                        | Record_format.Element
                            { children_off; children_len; _ } ->
                            descend record abs children_off
                              (children_off + children_len) rest
                        | _ -> None))
            in
            descend record context first (String.length record) rel_path
          end

  let parent t ~docid c =
    match Node_id.parent (node_id c) with
    | None | Some "" -> None
    | Some pid -> find t ~docid pid
end

let subtree_events t ~docid node_id f =
  match Cursor.find t ~docid node_id with
  | None -> invalid_arg "Doc_store.subtree_events: node not found"
  | Some c ->
      (* Namespaces declared on ancestors must reappear on the extracted
         subtree root — the record header's in-scope list plus declarations
         of intra-record ancestors (what makes records "self-contained"). *)
      let inherited =
        let record = fst c.Cursor.resolved in
        let header, _ = Record_format.decode_header record in
        let context = header.Record_format.context in
        let rel_path =
          Node_id.components
            (String.sub node_id (String.length context)
               (String.length node_id - String.length context))
        in
        let _, nodes = Record_tree.decode record in
        let override inner outer =
          inner @ List.filter (fun (p, _) -> not (List.mem_assoc p inner)) outer
        in
        let rec walk nodes acc = function
          | [] | [ _ ] -> acc
          | comp :: rest -> (
              match
                List.find_opt (fun n -> Record_tree.node_rel n = comp) nodes
              with
              | Some (Record_tree.Element e) ->
                  walk e.children (override e.ns_decls acc) rest
              | _ -> acc)
        in
        walk nodes header.Record_format.ns_in_scope rel_path
      in
      let first = ref true in
      emit_entry t ~docid c.Cursor.record
        (Option.value ~default:Node_id.root (Node_id.parent node_id))
        c.Cursor.entry
        (fun e ->
          if !first then begin
            first := false;
            match e.token with
            | Token.Start_element el ->
                let merged =
                  el.Token.ns_decls
                  @ List.filter
                      (fun (p, _) -> not (List.mem_assoc p el.Token.ns_decls))
                      inherited
                in
                f { e with token = Token.Start_element { el with ns_decls = merged } }
            | _ -> f e
          end
          else f e)

type stats = {
  documents : int;
  records : int;
  index_entries : int;
  data_pages : int;
  overflow_pages : int;
  index_pages : int;
  record_bytes : int;
}

let data_page_count t = Heap_file.data_pages t.heap

let stats t =
  {
    documents = t.doc_count;
    records = Heap_file.record_count t.heap;
    index_entries = Rx_btree.Btree.entry_count t.index;
    data_pages = Heap_file.data_pages t.heap;
    overflow_pages = Heap_file.overflow_pages t.heap;
    index_pages = Rx_btree.Btree.page_count t.index;
    record_bytes = t.record_bytes;
  }
