open Rx_storage
open Rx_btree

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let make_tree ?(page_size = 512) ?(capacity = 256) () =
  let pool = Buffer_pool.create ~capacity (Pager.create_in_memory ~page_size ()) in
  (pool, Btree.create pool)

let test_empty () =
  let _, tree = make_tree () in
  check (Alcotest.option Alcotest.string) "find on empty" None (Btree.find tree "k");
  check Alcotest.int "count" 0 (Btree.entry_count tree);
  check Alcotest.bool "delete on empty" false (Btree.delete tree "k");
  Btree.check_invariants tree

let test_single_node_ops () =
  let _, tree = make_tree () in
  Btree.insert tree ~key:"b" ~value:"2";
  Btree.insert tree ~key:"a" ~value:"1";
  Btree.insert tree ~key:"c" ~value:"3";
  check (Alcotest.option Alcotest.string) "a" (Some "1") (Btree.find tree "a");
  check (Alcotest.option Alcotest.string) "b" (Some "2") (Btree.find tree "b");
  check (Alcotest.option Alcotest.string) "c" (Some "3") (Btree.find tree "c");
  check (Alcotest.option Alcotest.string) "missing" None (Btree.find tree "d");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "sorted"
    [ ("a", "1"); ("b", "2"); ("c", "3") ]
    (Btree.to_list tree)

let test_replace () =
  let _, tree = make_tree () in
  Btree.insert tree ~key:"k" ~value:"old";
  Btree.insert tree ~key:"k" ~value:"new-and-longer";
  check (Alcotest.option Alcotest.string) "replaced" (Some "new-and-longer")
    (Btree.find tree "k");
  check Alcotest.int "count unchanged" 1 (Btree.entry_count tree)

let test_split_growth () =
  let _, tree = make_tree ~page_size:512 () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Btree.insert tree ~key:(Printf.sprintf "key%06d" i) ~value:(Printf.sprintf "val%d" i)
  done;
  Btree.check_invariants tree;
  check Alcotest.int "count" n (Btree.entry_count tree);
  check Alcotest.bool "grew levels" true (Btree.height tree >= 3);
  for i = 0 to n - 1 do
    match Btree.find tree (Printf.sprintf "key%06d" i) with
    | Some v ->
        if v <> Printf.sprintf "val%d" i then Alcotest.fail "wrong value"
    | None -> Alcotest.failf "missing key%06d" i
  done

let test_random_order_insert () =
  let _, tree = make_tree ~page_size:512 () in
  let rng = Rx_util.Prng.create ~seed:99 in
  let keys = Array.init 1500 (fun i -> Printf.sprintf "k%08d" i) in
  Rx_util.Prng.shuffle rng keys;
  Array.iter (fun k -> Btree.insert tree ~key:k ~value:k) keys;
  Btree.check_invariants tree;
  check Alcotest.int "count" 1500 (Btree.entry_count tree);
  let sorted = Array.to_list (Array.map (fun k -> (k, k)) keys) |> List.sort compare in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "in-order traversal" sorted (Btree.to_list tree)

let test_range_scan () =
  let _, tree = make_tree () in
  for i = 0 to 99 do
    Btree.insert tree ~key:(Printf.sprintf "%03d" i) ~value:(string_of_int i)
  done;
  let collect ?lo ?hi () =
    Btree.fold_range tree ?lo ?hi ~init:[] (fun acc k _ -> k :: acc) |> List.rev
  in
  check (Alcotest.list Alcotest.string) "closed-open range"
    [ "010"; "011"; "012" ]
    (collect ~lo:"010" ~hi:"013" ());
  check Alcotest.int "from lo" 90 (List.length (collect ~lo:"010" ()));
  check Alcotest.int "to hi" 10 (List.length (collect ~hi:"010" ()));
  check Alcotest.int "all" 100 (List.length (collect ()));
  check (Alcotest.list Alcotest.string) "empty range" [] (collect ~lo:"900" ());
  (* lo between keys *)
  check (Alcotest.list Alcotest.string) "lo not a key"
    [ "011"; "012" ]
    (collect ~lo:"010x" ~hi:"013" ())

let test_iter_stop () =
  let _, tree = make_tree () in
  for i = 0 to 99 do
    Btree.insert tree ~key:(Printf.sprintf "%03d" i) ~value:""
  done;
  let seen = ref 0 in
  Btree.iter_range tree (fun _ _ ->
      incr seen;
      if !seen >= 5 then `Stop else `Continue);
  check Alcotest.int "early stop" 5 !seen

let test_iter_prefix () =
  let _, tree = make_tree () in
  List.iter
    (fun k -> Btree.insert tree ~key:k ~value:"")
    [ "app"; "apple"; "apples"; "apricot"; "banana"; "ap" ];
  let seen = ref [] in
  Btree.iter_prefix tree ~prefix:"app" (fun k _ ->
      seen := k :: !seen;
      `Continue);
  check
    (Alcotest.slist Alcotest.string String.compare)
    "prefix matches" [ "app"; "apple"; "apples" ] !seen

let test_delete () =
  let _, tree = make_tree ~page_size:512 () in
  for i = 0 to 999 do
    Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 999 do
    if i mod 3 = 0 then
      check Alcotest.bool "delete present" true
        (Btree.delete tree (Printf.sprintf "key%04d" i))
  done;
  Btree.check_invariants tree;
  check Alcotest.bool "delete absent" false (Btree.delete tree "key0000");
  for i = 0 to 999 do
    let expected = if i mod 3 = 0 then None else Some (string_of_int i) in
    check (Alcotest.option Alcotest.string)
      (Printf.sprintf "key%04d" i)
      expected
      (Btree.find tree (Printf.sprintf "key%04d" i))
  done

let test_attach () =
  let pool, tree = make_tree () in
  for i = 0 to 500 do
    Btree.insert tree ~key:(Printf.sprintf "k%05d" i) ~value:(string_of_int i)
  done;
  let tree2 = Btree.attach pool ~meta_page:(Btree.meta_page tree) in
  check (Alcotest.option Alcotest.string) "find via attach" (Some "250")
    (Btree.find tree2 "k00250");
  check Alcotest.int "count via attach" 501 (Btree.entry_count tree2)

let test_large_entries () =
  let _, tree = make_tree ~page_size:4096 () in
  let big = String.make 500 'v' in
  for i = 0 to 50 do
    Btree.insert tree ~key:(Printf.sprintf "big%03d" i) ~value:big
  done;
  Btree.check_invariants tree;
  check (Alcotest.option Alcotest.string) "big value" (Some big) (Btree.find tree "big025");
  Alcotest.check_raises "oversized entry rejected"
    (Invalid_argument "Btree.insert: entry too large") (fun () ->
      Btree.insert tree ~key:"huge" ~value:(String.make 4000 'x'))

let test_binary_keys () =
  let _, tree = make_tree () in
  let keys = [ "\x00"; "\x00\x00"; "\x00\x01"; "\xff"; "\xfe\xff"; "" ] in
  List.iter (fun k -> Btree.insert tree ~key:k ~value:(String.escaped k)) keys;
  Btree.check_invariants tree;
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.string) (String.escaped k)
        (Some (String.escaped k)) (Btree.find tree k))
    keys;
  check
    (Alcotest.list Alcotest.string)
    "binary order"
    (List.sort String.compare keys)
    (List.map fst (Btree.to_list tree))

(* model-based property: random interleaved insert/delete/replace vs Map *)
let btree_model_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Insert (k, v)) (int_bound 400) small_nat);
          (2, map (fun k -> `Delete k) (int_bound 400));
          (2, map (fun k -> `Find k) (int_bound 400));
        ])
  in
  QCheck.Test.make ~name:"btree matches Map model" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 50 400) op_gen))
    (fun ops ->
      let _, tree = make_tree ~page_size:512 () in
      let key k = Printf.sprintf "key-%06d" k in
      let module M = Map.Make (String) in
      let m = ref M.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) ->
              Btree.insert tree ~key:(key k) ~value:(string_of_int v);
              m := M.add (key k) (string_of_int v) !m
          | `Delete k ->
              let deleted = Btree.delete tree (key k) in
              if deleted <> M.mem (key k) !m then ok := false;
              m := M.remove (key k) !m
          | `Find k ->
              if Btree.find tree (key k) <> M.find_opt (key k) !m then ok := false)
        ops;
      Btree.check_invariants tree;
      !ok
      && Btree.to_list tree = M.bindings !m
      && Btree.entry_count tree = M.cardinal !m)

let btree_range_model_prop =
  QCheck.Test.make ~name:"range scans match model" ~count:60
    QCheck.(
      triple
        (list_of_size (Gen.int_range 10 200) (int_bound 500))
        (int_bound 500) (int_bound 500))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let _, tree = make_tree ~page_size:512 () in
      let key k = Printf.sprintf "%06d" k in
      List.iter (fun k -> Btree.insert tree ~key:(key k) ~value:"") keys;
      let expected =
        List.sort_uniq compare keys
        |> List.filter (fun k -> k >= lo && k < hi)
        |> List.map key
      in
      let actual =
        Btree.fold_range tree ~lo:(key lo) ~hi:(key hi) ~init:[] (fun acc k _ ->
            k :: acc)
        |> List.rev
      in
      expected = actual)

(* iter_range copies a leaf only up to the first key >= hi and hands out
   exactly the keys in [lo, hi), whether hi falls inside a leaf or on a leaf
   boundary, and however early the callback stops; btree.scan_len observes
   the number of cells delivered. *)
let iter_range_bounds_prop =
  let key = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '\x00'; '\xff' ]) (int_range 1 6)) in
  QCheck.Test.make ~name:"iter_range delivers exactly [lo, hi)" ~count:150
    QCheck.(
      make
        Gen.(
          quad (list_size (int_range 0 300) key) (opt key) (opt key) (int_bound 4)))
    (fun (keys, lo, hi, stop_after) ->
      let pool, tree = make_tree ~page_size:512 () in
      List.iter (fun k -> Btree.insert tree ~key:k ~value:(k ^ "!")) keys;
      let in_range k =
        (match lo with None -> true | Some l -> String.compare k l >= 0)
        && match hi with None -> true | Some h -> String.compare k h < 0
      in
      let expected =
        List.filter in_range (List.sort_uniq String.compare keys)
        |> List.filteri (fun i _ -> stop_after = 0 || i < stop_after)
      in
      let scan_len = Rx_obs.Metrics.histogram (Buffer_pool.metrics pool) "btree.scan_len" in
      let before = Rx_obs.Metrics.histogram_sum scan_len in
      let seen = ref [] and values_ok = ref true in
      Btree.iter_range tree ?lo ?hi (fun k v ->
          seen := k :: !seen;
          if v <> k ^ "!" then values_ok := false;
          if List.length !seen = stop_after then `Stop else `Continue);
      !values_ok
      && List.rev !seen = expected
      && Rx_obs.Metrics.histogram_sum scan_len - before = List.length expected)

let test_iter_stop_first_cell () =
  let pool, tree = make_tree ~page_size:512 () in
  for i = 0 to 999 do
    Btree.insert tree ~key:(Printf.sprintf "%04d" i) ~value:"v"
  done;
  let scan_len = Rx_obs.Metrics.histogram (Buffer_pool.metrics pool) "btree.scan_len" in
  let before = Rx_obs.Metrics.histogram_sum scan_len in
  let seen = ref [] in
  Btree.iter_range tree ~lo:"0500" ~hi:"0900" (fun k _ ->
      seen := k :: !seen;
      `Stop);
  check (Alcotest.list Alcotest.string) "first cell only" [ "0500" ] !seen;
  check Alcotest.int "scan_len counts it" 1
    (Rx_obs.Metrics.histogram_sum scan_len - before);
  (* hi just past lo, inside one leaf *)
  let seen = ref [] in
  Btree.iter_range tree ~lo:"0500" ~hi:"0502" (fun k _ ->
      seen := k :: !seen;
      `Continue);
  check (Alcotest.list Alcotest.string) "two cells" [ "0501"; "0500" ] !seen

(* Binary search compares keys in place: a probe allocates neither the key
   nor the value, so a search costs only its result pair. *)
let test_search_allocation () =
  let page = Bytes.make 4096 '\x00' in
  Node.init page ~level:0;
  for i = 0 to 19 do
    assert
      (Node.leaf_insert_at page i ~key:(Printf.sprintf "key%03d" i)
         ~value:(String.make 100 'v'))
  done;
  let key = "key013" in
  ignore (Node.search page key);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Node.search page key))
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f words for 1000 searches" words)
    true (words < 5_000.);
  check (Alcotest.pair Alcotest.bool Alcotest.int) "found" (true, 13)
    (Node.search page key);
  check Alcotest.string "key_at" "key007" (Node.key_at page 7)

let () =
  Alcotest.run "rx_btree"
    [
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single node" `Quick test_single_node_ops;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "splits and growth" `Quick test_split_growth;
          Alcotest.test_case "random insert order" `Quick test_random_order_insert;
          Alcotest.test_case "range scan" `Quick test_range_scan;
          Alcotest.test_case "iterator early stop" `Quick test_iter_stop;
          Alcotest.test_case "prefix iteration" `Quick test_iter_prefix;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "attach" `Quick test_attach;
          Alcotest.test_case "large entries" `Quick test_large_entries;
          Alcotest.test_case "binary keys" `Quick test_binary_keys;
          qcheck btree_model_prop;
          qcheck btree_range_model_prop;
          qcheck iter_range_bounds_prop;
          Alcotest.test_case "stop after the first cell" `Quick test_iter_stop_first_cell;
          Alcotest.test_case "search allocates no keys" `Quick test_search_allocation;
        ] );
    ]
