open Rx_storage
open Rx_xml
open Rx_xmlstore
open Rx_xindex

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let dict = Name_dict.create ()

let make_store ?(threshold = 256) () =
  let pool = Buffer_pool.create ~capacity:512 (Pager.create_in_memory ()) in
  (pool, Doc_store.create ~record_threshold:threshold pool dict)

let catalog_doc i price discount =
  Printf.sprintf
    {|<Catalog><Categories><Product><RegPrice>%s</RegPrice><Discount>%s</Discount><Name>product-%d</Name></Product></Categories></Catalog>|}
    price discount i

(* --- definitions --- *)

let test_def_validation () =
  let ok = Index_def.make ~name:"i1" ~path:"/Catalog//ProductName" ~key_type:Index_def.K_string in
  check Alcotest.string "kept" "i1" ok.Index_def.name;
  Alcotest.check_raises "predicate rejected"
    (Invalid_argument "Index_def.make: index paths must have no predicates")
    (fun () ->
      ignore (Index_def.make ~name:"bad" ~path:"/a[b]" ~key_type:Index_def.K_string));
  Alcotest.check_raises "relative rejected"
    (Invalid_argument "Index_def.make: index paths must be absolute")
    (fun () ->
      ignore (Index_def.make ~name:"bad" ~path:"a/b" ~key_type:Index_def.K_string))

let test_anchor_level () =
  let level path =
    Index_def.anchor_level
      (Index_def.make ~name:"x" ~path ~key_type:Index_def.K_double)
  in
  check (Alcotest.option Alcotest.int) "all-child element path" (Some 3)
    (level "/Catalog/Categories/Product/RegPrice");
  check (Alcotest.option Alcotest.int) "attribute path" (Some 2) (level "/a/b/@id");
  check (Alcotest.option Alcotest.int) "descendant path" None (level "//Discount")

(* --- maintenance + scans --- *)

let setup_catalog ?(n = 20) () =
  let pool, store = make_store () in
  let def =
    Index_def.make ~name:"regprice"
      ~path:"/Catalog/Categories/Product/RegPrice" ~key_type:Index_def.K_double
  in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  for i = 1 to n do
    Doc_store.insert_document store ~docid:i
      (catalog_doc i (string_of_int (i * 10)) "0.1")
  done;
  (pool, store, idx)

let test_index_populated () =
  let _, _, idx = setup_catalog () in
  check Alcotest.int "one entry per document" 20 (Value_index.entry_count idx);
  let entries = Value_index.entries idx () in
  (* entries come back in key order *)
  let keys =
    List.map
      (fun e ->
        match e.Value_index.key with
        | Typed_value.Double f -> f
        | _ -> Alcotest.fail "expected double keys")
      entries
  in
  check Alcotest.bool "sorted by value" true (List.sort compare keys = keys);
  check (Alcotest.list Alcotest.int) "docids follow values"
    (List.init 20 (fun i -> i + 1))
    (List.map (fun e -> e.Value_index.docid) entries)

let test_range_scans () =
  let _, _, idx = setup_catalog () in
  let count ?min ?max () = List.length (Value_index.entries idx ?min ?max ()) in
  check Alcotest.int "gt 100 exclusive" 10
    (count ~min:(Typed_value.Double 100., false) ());
  check Alcotest.int "ge 100" 11 (count ~min:(Typed_value.Double 100., true) ());
  check Alcotest.int "le 50" 5 (count ~max:(Typed_value.Double 50., true) ());
  check Alcotest.int "eq 70" 1
    (count ~min:(Typed_value.Double 70., true) ~max:(Typed_value.Double 70., true) ());
  check Alcotest.int "eq missing" 0
    (count ~min:(Typed_value.Double 75., true) ~max:(Typed_value.Double 75., true) ())

let test_index_delete () =
  let _, store, idx = setup_catalog () in
  Doc_store.delete_document store ~docid:5;
  Doc_store.delete_document store ~docid:6;
  check Alcotest.int "entries removed" 18 (Value_index.entry_count idx);
  check Alcotest.bool "docid 5 gone" true
    (List.for_all (fun e -> e.Value_index.docid <> 5) (Value_index.entries idx ()))

let test_unconvertible_values_skipped () =
  let pool, store = make_store () in
  let def =
    Index_def.make ~name:"price" ~path:"/items/item/price" ~key_type:Index_def.K_double
  in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  Doc_store.insert_document store ~docid:1
    "<items><item><price>12.5</price></item><item><price>call us</price></item></items>";
  check Alcotest.int "only convertible entry" 1 (Value_index.entry_count idx)

let test_split_subtree_value () =
  (* a tiny record threshold forces the indexed element's subtree to split
     across records; the index must still see the full concatenated value *)
  let pool = Buffer_pool.create ~capacity:512 (Pager.create_in_memory ()) in
  let store = Doc_store.create ~record_threshold:64 pool dict in
  let def = Index_def.make ~name:"blob" ~path:"/r/blob" ~key_type:Index_def.K_string in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  let long_a = String.make 60 'a' and long_b = String.make 60 'b' in
  Doc_store.insert_document store ~docid:1
    (Printf.sprintf "<r><blob><p>%s</p><p>%s</p></blob></r>" long_a long_b);
  check Alcotest.bool "document got split" true
    ((Doc_store.stats store).Doc_store.records > 1);
  match Value_index.entries idx () with
  | [ e ] ->
      check Alcotest.string "full value" (long_a ^ long_b)
        (Typed_value.to_string e.Value_index.key)
  | entries -> Alcotest.failf "expected one entry, got %d" (List.length entries)

let test_attribute_index () =
  let pool, store = make_store () in
  let def = Index_def.make ~name:"ids" ~path:"//@id" ~key_type:Index_def.K_integer in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  Doc_store.insert_document store ~docid:1
    {|<r><a id="5"/><b><c id="7"/></b></r>|};
  let entries = Value_index.entries idx () in
  check Alcotest.int "two attribute entries" 2 (List.length entries);
  check
    (Alcotest.list Alcotest.string)
    "keys"
    [ "5"; "7" ]
    (List.map (fun e -> Typed_value.to_string e.Value_index.key) entries)

(* --- access methods --- *)

let docids_of = function `Docids d -> d | _ -> Alcotest.fail "expected docids"
let anchors_of = function `Anchors a -> a | _ -> Alcotest.fail "expected anchors"

let test_docid_and_nodeid_lists () =
  let _, _, idx = setup_catalog () in
  let range =
    Option.get (Access.range_of_compare Rx_xpath.Ast.Gt (Typed_value.Double 150.))
  in
  check (Alcotest.list Alcotest.int) "docid list" [ 16; 17; 18; 19; 20 ]
    (docids_of (Access.intersect Docid_level [ (idx, range) ]));
  let nodeids = ref [] in
  Value_index.postings idx ?min:range.min ?max:range.max (fun d n ->
      nodeids := (d, n) :: !nodeids);
  check Alcotest.int "nodeid list size" 5 (List.length !nodeids);
  (* anchored at the Product level (3): all truncated to depth 3 *)
  let anchored = anchors_of (Access.intersect (Nodeid_level 3) [ (idx, range) ]) in
  check Alcotest.int "one anchor per match" 5 (List.length anchored);
  check Alcotest.bool "anchored at product" true
    (List.for_all (fun (_, id) -> Node_id.level id = 3) anchored)

(* A double index over /r/e/v whose documents carry the given values, one
   <e> anchor per document holding all of them. *)
let multi_valued_index docs =
  let pool, store = make_store () in
  let def = Index_def.make ~name:"v" ~path:"/r/e/v" ~key_type:Index_def.K_double in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  List.iter
    (fun (docid, values) ->
      Doc_store.insert_document store ~docid
        (Printf.sprintf "<r><e>%s</e></r>"
           (String.concat ""
              (List.map (Printf.sprintf "<v>%g</v>") values))))
    docs;
  idx

let test_and_or () =
  let idx =
    multi_valued_index
      [ (1, [ 1.; 5. ]); (2, [ 5.; 15. ]); (3, [ 15. ]); (4, [ 15.; 5. ]);
        (7, [ 5. ]); (9, [ 15. ]) ]
  in
  let r lo hi =
    { Access.min = Some (Typed_value.Double lo, true);
      max = Some (Typed_value.Double hi, false) }
  in
  let docids uses = docids_of (Access.intersect Docid_level uses) in
  check (Alcotest.list Alcotest.int) "and" [ 2; 4 ]
    (docids [ (idx, r 0. 10.); (idx, r 10. 20.) ]);
  check (Alcotest.list Alcotest.int) "and at the anchor level" [ 2; 4 ]
    (List.map fst
       (anchors_of (Access.intersect (Nodeid_level 2) [ (idx, r 0. 10.); (idx, r 10. 20.) ])));
  (* ORing two value ranges of one index is one scan over their union *)
  check (Alcotest.list Alcotest.int) "or" [ 1; 2; 3; 4; 7; 9 ]
    (docids [ (idx, r 0. 20.) ]);
  check (Alcotest.list Alcotest.int) "and empty" []
    (docids [ (idx, r 100. 200.); (idx, r 0. 20.) ]);
  check (Alcotest.list Alcotest.int) "and with an empty later side" []
    (docids [ (idx, r 0. 20.); (idx, r 100. 200.) ]);
  check (Alcotest.list Alcotest.int) "or empty" [ 1 ] (docids [ (idx, r 0. 2.) ])

(* Differential check of the AND kernel against the list-based algorithm
   it replaced, rebuilt here from [Value_index.entries]: per use, a sorted
   duplicate-free DocID or anchor list, intersected pairwise. Decimal and
   string keys exercise the self-delimiting value skip of
   [Value_index.postings]; string values embed NUL and 0xff bytes. *)
let oracle granularity uses =
  let rec merge a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | x :: xs, y :: ys ->
        let c = compare x y in
        if c = 0 then x :: merge xs ys else if c < 0 then merge xs b else merge a ys
  in
  let entries (idx, r) = Value_index.entries idx ?min:r.Access.min ?max:r.Access.max () in
  let fold = function [] -> [] | l :: ls -> List.fold_left merge l ls in
  match granularity with
  | Access.Docid_level ->
      `Docids
        (fold
           (List.map
              (fun u ->
                List.sort_uniq compare
                  (List.map (fun e -> e.Value_index.docid) (entries u)))
              uses))
  | Access.Nodeid_level level ->
      `Anchors
        (fold
           (List.map
              (fun u ->
                List.filter_map
                  (fun e ->
                    let comps = Node_id.components e.Value_index.node in
                    if List.length comps < level then None
                    else
                      Some
                        ( e.Value_index.docid,
                          String.concat "" (List.filteri (fun i _ -> i < level) comps) ))
                  (entries u)
                |> List.sort_uniq compare)
              uses))

let kernel_matches_oracle_prop =
  let open QCheck.Gen in
  (* NodeIDs of random depth; sibling numbers past 126 take two bytes *)
  let rel = map Node_id.nth_sibling_rel (oneof [ int_bound 4; int_range 120 130 ]) in
  let path depth = map (String.concat "") (list_repeat depth rel) in
  let str_value = string_size ~gen:(oneofl [ '\x00'; '\xff'; 'a'; 'b' ]) (int_bound 3) in
  let value kt =
    match kt with
    | Index_def.K_string -> map (fun s -> Typed_value.String s) str_value
    | Index_def.K_decimal ->
        map
          (fun n -> Typed_value.Decimal (Rx_util.Decimal.of_float (float_of_int (n - 4) /. 2.)))
          (int_bound 9)
    | _ -> map (fun n -> Typed_value.Double (float_of_int n)) (int_bound 9)
  in
  (* an anchor at a random depth with 0-3 values on nodes at or below it *)
  let anchor_keys kt =
    int_range 1 4 >>= fun depth ->
    path depth >>= fun anchor ->
    list_size (int_bound 3)
      (pair (value kt) (map (fun tail -> anchor ^ tail) (int_bound 2 >>= path)))
  in
  let doc_keys kt = map List.concat (list_size (int_bound 3) (anchor_keys kt)) in
  let bound kt = opt (pair (value kt) bool) in
  let case kt =
    let* docs = list_size (int_range 1 12) (doc_keys kt) in
    let* docs2 = list_size (int_range 1 12) (doc_keys kt) in
    let* uses = list_size (int_range 1 3) (triple bool (bound kt) (bound kt)) in
    let* level = int_bound 5 in
    return (docs, docs2, uses, level)
  in
  let run kt (docs, docs2, uses, level) =
    let pool, _ = make_store () in
    let make name keys =
      let def = Index_def.make ~name ~path:("//" ^ name) ~key_type:kt in
      let idx = Value_index.create pool dict def in
      List.iteri
        (fun i keys ->
          Value_index.insert_keys idx ~docid:(i + 1) ~rid:(Rx_storage.Rid.make ~page:1 ~slot:i)
            keys)
        keys;
      idx
    in
    let a = make "a" docs and b = make "b" docs2 in
    let uses =
      List.map
        (fun (second, min, max) -> ((if second then b else a), { Access.min; max }))
        uses
    in
    let granularity = if level = 0 then Access.Docid_level else Nodeid_level level in
    Access.intersect granularity uses = oracle granularity uses
  in
  let test kt name =
    QCheck.Test.make ~name ~count:200 (QCheck.make (case kt)) (run kt)
  in
  [ test Index_def.K_double "AND kernel = list oracle, double";
    test Index_def.K_string "AND kernel = list oracle, string";
    test Index_def.K_decimal "AND kernel = list oracle, decimal" ]

let test_range_of_compare () =
  let v = Typed_value.Double 10. in
  check Alcotest.bool "neq unsupported" true
    (Access.range_of_compare Rx_xpath.Ast.Neq v = None);
  (match Access.range_of_compare Rx_xpath.Ast.Eq v with
  | Some { Access.min = Some (_, true); max = Some (_, true) } -> ()
  | _ -> Alcotest.fail "eq should be a closed point range");
  match Access.range_of_compare Rx_xpath.Ast.Lt v with
  | Some { Access.min = None; max = Some (_, false) } -> ()
  | _ -> Alcotest.fail "lt should be open above"

(* containment-based filtering: //Discount index used for a specific path *)
let test_filtering_superset () =
  let pool, store = make_store () in
  let def = Index_def.make ~name:"disc" ~path:"//Discount" ~key_type:Index_def.K_double in
  let idx = Value_index.create pool dict def in
  Value_index.hook idx store;
  (* one doc matches the query path, another has a Discount elsewhere *)
  Doc_store.insert_document store ~docid:1 (catalog_doc 1 "100" "0.5");
  Doc_store.insert_document store ~docid:2
    "<Catalog><Promo><Discount>0.5</Discount></Promo></Catalog>";
  let range =
    Option.get (Access.range_of_compare Rx_xpath.Ast.Gt (Typed_value.Double 0.2))
  in
  (* index gives a superset: both docs *)
  check (Alcotest.list Alcotest.int) "superset" [ 1; 2 ]
    (docids_of (Access.intersect Docid_level [ (idx, range) ]));
  (* and the index path does contain the query path *)
  check Alcotest.bool "containment holds" true
    (Rx_xpath.Containment.contains def.Index_def.path
       (Rx_xpath.Xpath_parser.parse "/Catalog/Categories/Product/Discount"))

let () =
  Alcotest.run "rx_xindex"
    [
      ( "definitions",
        [
          Alcotest.test_case "validation" `Quick test_def_validation;
          Alcotest.test_case "anchor level" `Quick test_anchor_level;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "populated on insert" `Quick test_index_populated;
          Alcotest.test_case "range scans" `Quick test_range_scans;
          Alcotest.test_case "delete removes entries" `Quick test_index_delete;
          Alcotest.test_case "unconvertible skipped" `Quick
            test_unconvertible_values_skipped;
          Alcotest.test_case "split subtree value" `Quick test_split_subtree_value;
          Alcotest.test_case "attribute index" `Quick test_attribute_index;
        ] );
      ( "access",
        [
          Alcotest.test_case "docid/nodeid lists" `Quick test_docid_and_nodeid_lists;
          Alcotest.test_case "anding/oring" `Quick test_and_or;
          Alcotest.test_case "range of compare" `Quick test_range_of_compare;
          Alcotest.test_case "filtering superset" `Quick test_filtering_superset;
        ]
        @ List.map qcheck kernel_matches_oracle_prop );
    ]
