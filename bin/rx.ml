(* rx — command-line shell over a persistent System R/X database directory.

     rx init            --db DIR [--archive]
     rx create-table    --db DIR --table T --columns "sku:varchar,doc:xml"
     rx index build     --db DIR --table T --column C --name I --path P --type double
     rx index status    --db DIR --table T --column C --name I
     rx index rollback  --db DIR --table T --column C --name I
     rx index drop      --db DIR --table T --column C --name I
     rx index list      --db DIR --table T --column C
     rx create-text-index --db DIR --table T --column C --name I
     rx insert          --db DIR --table T --xml "doc=<a>...</a>" [--xml-file doc=path]
     rx load            --db DIR --table T --column C PATH   (bulk ingest)
     rx get             --db DIR --table T --column C --docid N
     rx query           --db DIR --table T --column C --xpath Q [--explain] [--profile]
     rx search          --db DIR --table T --column C --terms "native xml"
     rx exec            --db DIR [--file SCRIPT]   (BEGIN/COMMIT/ROLLBACK batches)
     rx checkpoint      --db DIR
     rx verify          --db DIR
     rx restore         --db SRC --target DST [--to-lsn L]
     rx stats           --db DIR [--json]
*)

open Cmdliner
open Systemrx
open Rx_relational

let with_db ?parallelism dir f =
  let config =
    match parallelism with
    | None -> Database.default_config
    | Some p -> { Database.default_config with parallelism = p }
  in
  let db = Database.open_dir ~config dir in
  Fun.protect ~finally:(fun () -> Database.close db) (fun () -> f db)

let parallelism_arg =
  let doc =
    "Worker domains for parallel scans and bulk loads: 0 picks one per \
     core, 1 forces sequential execution. Defaults to the RX_PARALLELISM \
     environment variable, or 0."
  in
  Arg.(value & opt (some int) None & info [ "parallelism" ] ~docv:"N" ~doc)

let db_arg =
  let doc = "Database directory (created if absent)." in
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)

let table_arg =
  Arg.(required & opt (some string) None & info [ "table" ] ~docv:"TABLE" ~doc:"Table name.")

let column_arg =
  Arg.(required & opt (some string) None & info [ "column" ] ~docv:"COL" ~doc:"XML column name.")

(* Stable exit codes (documented in README and DESIGN.md), shared with the
   rxd wire-protocol status codes via Database.error_code:
     0  success
     1  usage or application error (bad arguments, parse/validation failure)
     2  unexpected internal error
     3  Busy        — lock wait timed out
     4  Deadlock    — transaction chosen as deadlock victim, rolled back
     5  Read_only   — database is degraded, writes refused
     6  corruption  — page checksum or WAL record CRC mismatch *)
let handle_errors f =
  try
    f ();
    0
  with e ->
    Printf.eprintf "error: %s\n" (Database.error_message e);
    Database.error_code e

(* --- init --- *)

let init_cmd =
  let archive_arg =
    Arg.(
      value & flag
      & info [ "archive" ]
          ~doc:
            "Enable WAL archiving: each checkpoint captures the log span it \
             truncates into $(i,DIR)/archive, preserving the full history \
             from LSN 0 for replication catch-up and $(b,rx restore). \
             Enable it before the first checkpoint or the early history is \
             lost.")
  in
  let run dir archive =
    handle_errors (fun () ->
        (* the archive directory must exist before the engine's first
           checkpoint (the close below), or the bootstrap span is lost *)
        if archive then begin
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
          let adir = Database.archive_path dir in
          if not (Sys.file_exists adir) then Unix.mkdir adir 0o755
        end;
        with_db dir (fun _db -> Printf.printf "initialized database in %s\n" dir);
        if archive then
          Printf.printf "WAL archiving enabled (%s)\n" (Database.archive_path dir))
  in
  Cmd.v (Cmd.info "init" ~doc:"Create (or open) a database directory.")
    Term.(const run $ db_arg $ archive_arg)

(* --- create-table --- *)

let parse_columns spec =
  String.split_on_char ',' spec
  |> List.map (fun part ->
         match String.split_on_char ':' (String.trim part) with
         | [ name; ty ] -> (
             match Value.col_type_of_string (String.trim ty) with
             | Some ty -> (String.trim name, ty)
             | None -> invalid_arg (Printf.sprintf "unknown column type %S" ty))
         | _ -> invalid_arg (Printf.sprintf "bad column spec %S (want name:type)" part))

let create_table_cmd =
  let columns_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "columns" ] ~docv:"SPEC" ~doc:"Comma-separated name:type list, e.g. \"sku:varchar,doc:xml\".")
  in
  let run dir table columns =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let cols = parse_columns columns in
            ignore (Database.create_table db ~name:table ~columns:cols);
            Printf.printf "created table %s (%d columns)\n" table (List.length cols)))
  in
  Cmd.v (Cmd.info "create-table" ~doc:"Create a base table (use type xml for XML columns).")
    Term.(const run $ db_arg $ table_arg $ columns_arg)

(* --- index lifecycle: rx index build/status/rollback/drop/list --- *)

let index_name_arg =
  Arg.(required & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc:"Index name.")

let print_index_info (i : Database.Index.info) =
  let state =
    match i.Database.Index.ix_state with
    | Database.Index.Live -> "live"
    | Database.Index.Building { scanned; total; side_log } ->
        Printf.sprintf "building %d/%d docs (side log %d)" scanned total side_log
    | Database.Index.Failed msg -> "failed: " ^ msg
  in
  Printf.printf "%s ON %s AS %s  gen %d  %s  entries %d  build %d ms%s\n"
    i.ix_name i.ix_path
    (Rx_xindex.Index_def.key_type_to_string i.ix_key_type)
    i.ix_generation state i.ix_entries i.ix_build_ms
    (match i.ix_prior_generation with
    | Some g -> Printf.sprintf "  (prior gen %d retained)" g
    | None -> "")

let index_build_cmd =
  let path_arg =
    Arg.(
      required & opt (some string) None
      & info [ "path" ] ~docv:"XPATH" ~doc:"Simple XPath expression without predicates.")
  in
  let type_arg =
    Arg.(
      value & opt string "string"
      & info [ "type" ] ~docv:"TYPE" ~doc:"Key type: string|double|decimal|integer|date.")
  in
  let run dir parallelism table column name path ty =
    handle_errors (fun () ->
        with_db ?parallelism dir (fun db ->
            let key_type =
              match Rx_xindex.Index_def.key_type_of_string ty with
              | Some kt -> kt
              | None -> invalid_arg (Printf.sprintf "unknown key type %S" ty)
            in
            let h = Database.Index.build db ~table ~column ~name ~path ~key_type in
            print_index_info (Database.Index.await h)))
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Build an XPath value index online — or, when the name is already \
          live, rebuild it as a new generation (the old one is retained for \
          $(b,rx index rollback)). Against a running server the build keeps \
          serving queries and DML from the previous generation.")
    Term.(
      const run $ db_arg $ parallelism_arg $ table_arg $ column_arg
      $ index_name_arg $ path_arg $ type_arg)

let index_status_cmd =
  let run dir table column name =
    handle_errors (fun () ->
        with_db dir (fun db ->
            print_index_info (Database.Index.status db ~table ~column ~name)))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Show one index's state: generation, entry count, build progress.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ index_name_arg)

let index_rollback_cmd =
  let run dir table column name =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let i = Database.Index.rollback db ~table ~column ~name in
            Printf.printf "rolled back to generation %d\n"
              i.Database.Index.ix_generation;
            print_index_info i))
  in
  Cmd.v
    (Cmd.info "rollback"
       ~doc:
         "Swap the retained prior generation back live, without downtime. A \
          rollback retains the displaced generation in turn, so it can be \
          undone by another rollback.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ index_name_arg)

let index_drop_cmd =
  let run dir table column name =
    handle_errors (fun () ->
        with_db dir (fun db ->
            Database.Index.drop db ~table ~column ~name;
            Printf.printf "dropped XPath value index %s\n" name))
  in
  Cmd.v
    (Cmd.info "drop"
       ~doc:"Drop an XPath value index and any retained prior generation.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ index_name_arg)

let index_list_cmd =
  let run dir table column =
    handle_errors (fun () ->
        with_db dir (fun db ->
            match Database.Index.list db ~table ~column with
            | [] -> print_endline "no indexes"
            | infos -> List.iter print_index_info infos))
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every XPath value index on an XML column.")
    Term.(const run $ db_arg $ table_arg $ column_arg)

let index_cmd =
  Cmd.group
    (Cmd.info "index"
       ~doc:
         "Online index lifecycle: build (generationally), inspect, roll back, \
          drop.")
    [
      index_build_cmd; index_status_cmd; index_rollback_cmd; index_drop_cmd;
      index_list_cmd;
    ]

let create_text_index_cmd =
  let name_arg =
    Arg.(required & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc:"Index name.")
  in
  let run dir table column name =
    handle_errors (fun () ->
        with_db dir (fun db ->
            Database.create_text_index db ~table ~column ~name;
            Printf.printf "created full-text index %s\n" name))
  in
  Cmd.v (Cmd.info "create-text-index" ~doc:"Create a full-text index on an XML column.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ name_arg)

(* --- register/bind schema --- *)

let register_schema_cmd =
  let name_arg =
    Arg.(required & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc:"Schema name.")
  in
  let file_arg =
    Arg.(required & opt (some string) None & info [ "xsd" ] ~docv:"FILE" ~doc:"XSD file.")
  in
  let run dir name file =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let ic = open_in_bin file in
            let xsd = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Database.register_schema db ~name ~xsd;
            Printf.printf "registered schema %s\n" name))
  in
  Cmd.v (Cmd.info "register-schema" ~doc:"Compile and register an XML schema (Figure 4).")
    Term.(const run $ db_arg $ name_arg $ file_arg)

let bind_schema_cmd =
  let schema_arg =
    Arg.(required & opt (some string) None & info [ "schema" ] ~docv:"NAME" ~doc:"Registered schema.")
  in
  let run dir table column schema =
    handle_errors (fun () ->
        with_db dir (fun db ->
            Database.bind_schema db ~table ~column ~schema;
            Printf.printf "bound schema %s to %s.%s\n" schema table column))
  in
  Cmd.v (Cmd.info "bind-schema" ~doc:"Validate a column's documents against a schema.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ schema_arg)

(* --- insert --- *)

let split_kv what s =
  match String.index_opt s '=' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> invalid_arg (Printf.sprintf "bad %s %S (want name=value)" what s)

let insert_cmd =
  let value_args =
    Arg.(value & opt_all string [] & info [ "value" ] ~docv:"COL=V" ~doc:"Relational column value (varchar).")
  in
  let xml_args =
    Arg.(value & opt_all string [] & info [ "xml" ] ~docv:"COL=DOC" ~doc:"Inline XML document.")
  in
  let xml_file_args =
    Arg.(value & opt_all string [] & info [ "xml-file" ] ~docv:"COL=FILE" ~doc:"XML document from a file.")
  in
  let run dir table values xmls xml_files =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let values =
              List.map
                (fun s ->
                  let k, v = split_kv "--value" s in
                  (k, Value.Varchar v))
                values
            in
            let xml_inline = List.map (split_kv "--xml") xmls in
            let xml_from_files =
              List.map
                (fun s ->
                  let k, path = split_kv "--xml-file" s in
                  let ic = open_in_bin path in
                  let doc = really_input_string ic (in_channel_length ic) in
                  close_in ic;
                  (k, doc))
                xml_files
            in
            let docid =
              Database.insert db ~table ~values ~xml:(xml_inline @ xml_from_files) ()
            in
            Printf.printf "inserted row with DocID %d\n" docid))
  in
  Cmd.v (Cmd.info "insert" ~doc:"Insert a row with XML column documents.")
    Term.(const run $ db_arg $ table_arg $ value_args $ xml_args $ xml_file_args)

(* --- get / query / search / stats --- *)

let docid_arg =
  Arg.(required & opt (some int) None & info [ "docid" ] ~docv:"N" ~doc:"Row DocID.")

let get_cmd =
  let run dir table column docid =
    handle_errors (fun () ->
        with_db dir (fun db ->
            print_endline (Database.document db ~table ~column ~docid)))
  in
  Cmd.v (Cmd.info "get" ~doc:"Print an XML column value.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ docid_arg)

let query_cmd =
  let xpath_arg =
    Arg.(required & opt (some string) None & info [ "xpath" ] ~docv:"XPATH" ~doc:"Query.")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Show the access plan too.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Report the runtime counters the query moved (buffer pool, B+tree, indexes, scan engine).")
  in
  let run dir table column xpath explain profile parallelism =
    handle_errors (fun () ->
        with_db ?parallelism dir (fun db ->
            let r = Database.run db ~table ~column ~xpath in
            if explain then Printf.printf "plan: %s\n" r.Database.plan.Database.description;
            List.iter (fun m -> print_endline (r.Database.serialize m)) r.Database.matches;
            Printf.eprintf "%d match(es)\n" (List.length r.Database.matches);
            if profile then
              List.iter
                (fun (name, delta) -> Printf.eprintf "profile %s %d\n" name delta)
                r.Database.profile))
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate an XPath query over an XML column.")
    Term.(
      const run $ db_arg $ table_arg $ column_arg $ xpath_arg $ explain_arg
      $ profile_arg $ parallelism_arg)

let search_cmd =
  let terms_arg =
    Arg.(required & opt (some string) None & info [ "terms" ] ~docv:"WORDS" ~doc:"Search terms.")
  in
  let any_arg = Arg.(value & flag & info [ "any" ] ~doc:"Match any term instead of all.") in
  let run dir table column terms any =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let mode = if any then `Any else `All in
            let docids = Database.text_search db ~table ~column ~mode terms in
            List.iter (fun d -> Printf.printf "DocID %d\n" d) docids;
            Printf.eprintf "%d document(s)\n" (List.length docids)))
  in
  Cmd.v (Cmd.info "search" ~doc:"Full-text search over an XML column.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ terms_arg $ any_arg)

let xquery_cmd =
  let query_arg =
    Arg.(
      required & opt (some string) None
      & info [ "query" ] ~docv:"FLWOR"
          ~doc:"FLWOR query, e.g. 'for \\$p in collection(\"t.c\") /a/b where \\$p/x > 1 return <r>{\\$p/x}</r>'.")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Show the access plan too.")
  in
  let run dir query explain parallelism =
    handle_errors (fun () ->
        with_db ?parallelism dir (fun db ->
            let compiled =
              try Xquery_lite.compile db query
              with Xquery_lite.Error msg -> invalid_arg msg
            in
            if explain then Printf.printf "plan: %s\n" (Xquery_lite.explain compiled);
            let results = Xquery_lite.run_compiled db compiled in
            List.iter print_endline results;
            Printf.eprintf "%d item(s)\n" (List.length results)))
  in
  Cmd.v (Cmd.info "xquery" ~doc:"Evaluate a FLWOR query over a collection.")
    Term.(const run $ db_arg $ query_arg $ explain_arg $ parallelism_arg)

(* --- exec: transactional batch scripts --- *)

(* One statement per line; '#' starts a comment. Keywords are
   case-insensitive:

     BEGIN
     COMMIT
     ROLLBACK
     INSERT <table> <column>=<xml document>     (rest of line is the document)
     DELETE <table> <docid>
     UPDATE-TEXT <table> <column> <docid> <xpath> <new text>
     QUERY <table> <column> <xpath>
     GET <table> <column> <docid>

   Statements between BEGIN and COMMIT run in one transaction: queries see
   the BEGIN-time snapshot plus the script's own writes, and ROLLBACK (or
   end-of-script, or a failing statement) undoes everything staged. *)
let exec_script db ic =
  let txn = ref None in
  let lineno = ref 0 in
  let fail msg = invalid_arg (Printf.sprintf "line %d: %s" !lineno msg) in
  let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "") in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then begin
         let keyword, rest =
           match String.index_opt line ' ' with
           | Some i ->
               ( String.lowercase_ascii (String.sub line 0 i),
                 String.trim (String.sub line i (String.length line - i)) )
           | None -> (String.lowercase_ascii line, "")
         in
         match keyword with
         | "begin" ->
             if !txn <> None then fail "transaction already open";
             let tx = Database.begin_txn db in
             txn := Some tx;
             Printf.printf "BEGIN txn %d\n" (Database.txn_id tx)
         | "commit" -> (
             match !txn with
             | None -> fail "no open transaction"
             | Some tx ->
                 Database.commit db tx;
                 txn := None;
                 Printf.printf "COMMIT txn %d\n" (Database.txn_id tx))
         | "rollback" -> (
             match !txn with
             | None -> fail "no open transaction"
             | Some tx ->
                 Database.rollback db tx;
                 txn := None;
                 Printf.printf "ROLLBACK txn %d\n" (Database.txn_id tx))
         | "insert" -> (
             match String.index_opt rest ' ' with
             | None -> fail "usage: INSERT <table> <column>=<xml>"
             | Some i ->
                 let table = String.sub rest 0 i in
                 let kv = String.trim (String.sub rest i (String.length rest - i)) in
                 let column, doc =
                   match String.index_opt kv '=' with
                   | Some j ->
                       ( String.sub kv 0 j,
                         String.sub kv (j + 1) (String.length kv - j - 1) )
                   | None -> fail "usage: INSERT <table> <column>=<xml>"
                 in
                 let docid =
                   Database.insert ?txn:!txn db ~table ~xml:[ (column, doc) ] ()
                 in
                 Printf.printf "inserted DocID %d\n" docid)
         | "delete" -> (
             match words rest with
             | [ table; docid ] ->
                 Database.delete ?txn:!txn db ~table ~docid:(int_of_string docid);
                 Printf.printf "deleted DocID %s\n" docid
             | _ -> fail "usage: DELETE <table> <docid>")
         | "update-text" -> (
             match words rest with
             | table :: column :: docid :: xpath :: (_ :: _ as content) ->
                 let docid = int_of_string docid in
                 let content = String.concat " " content in
                 let r = Database.run ?txn:!txn db ~table ~column ~xpath in
                 let node =
                   match
                     List.filter (fun m -> m.Database.docid = docid) r.Database.matches
                   with
                   | m :: _ -> m.Database.node
                   | [] -> fail (Printf.sprintf "no match for %s in DocID %d" xpath docid)
                 in
                 Database.update_xml_text ?txn:!txn db ~table ~column ~docid node content;
                 Printf.printf "updated DocID %d\n" docid
             | _ -> fail "usage: UPDATE-TEXT <table> <column> <docid> <xpath> <text>")
         | "query" -> (
             match words rest with
             | table :: column :: (_ :: _ as xpath) ->
                 let xpath = String.concat " " xpath in
                 let r = Database.run ?txn:!txn db ~table ~column ~xpath in
                 List.iter
                   (fun m -> print_endline (r.Database.serialize m))
                   r.Database.matches;
                 Printf.printf "%d match(es)\n" (List.length r.Database.matches)
             | _ -> fail "usage: QUERY <table> <column> <xpath>")
         | "get" -> (
             match words rest with
             | [ table; column; docid ] ->
                 print_endline
                   (Database.document ?txn:!txn db ~table ~column
                      ~docid:(int_of_string docid))
             | _ -> fail "usage: GET <table> <column> <docid>")
         | kw -> fail (Printf.sprintf "unknown statement %S" kw)
       end
     done
   with End_of_file -> ());
  match !txn with
  | Some tx ->
      Database.rollback db tx;
      Printf.eprintf "warning: transaction %d open at end of script, rolled back\n"
        (Database.txn_id tx)
  | None -> ()

let exec_cmd =
  let file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Script file (default: stdin).")
  in
  let run dir file =
    handle_errors (fun () ->
        with_db dir (fun db ->
            match file with
            | None -> exec_script db stdin
            | Some path ->
                let ic = open_in path in
                Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
                    exec_script db ic)))
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Run a batch script with BEGIN/COMMIT/ROLLBACK transaction control.")
    Term.(const run $ db_arg $ file_arg)

(* --- load: bulk ingest --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* a directory loads its .xml files in name order; a plain file is read as
   one XML document per non-blank line *)
let load_docs path =
  if not (Sys.file_exists path) then
    invalid_arg (Printf.sprintf "no such file or directory %S" path)
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
    |> List.map (fun f -> read_file (Filename.concat path f))
  else
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun line -> String.trim line <> "")

let load_cmd =
  let path_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:
            "Directory of .xml files (loaded in name order), or a file with \
             one XML document per line.")
  in
  let run dir table column path parallelism =
    handle_errors (fun () ->
        with_db ?parallelism dir (fun db ->
            let docs = load_docs path in
            let ids = Database.insert_many db ~table ~column docs in
            match ids with
            | [] -> print_endline "loaded 0 documents"
            | first :: _ ->
                let lo = List.fold_left min first ids in
                let hi = List.fold_left max first ids in
                Printf.printf "loaded %d document(s) into %s.%s (DocID %d..%d)\n"
                  (List.length ids) table column lo hi))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Bulk-load XML documents into a column in one transaction: one \
          table-level lock, batched index maintenance, a single WAL flush.")
    Term.(const run $ db_arg $ table_arg $ column_arg $ path_arg $ parallelism_arg)

(* --- checkpoint / verify --- *)

let checkpoint_cmd =
  let run dir =
    handle_errors (fun () ->
        with_db dir (fun db ->
            Database.checkpoint db;
            Printf.printf "checkpoint complete; WAL truncated\n"))
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Force a checkpoint: persist the catalog, flush all dirty pages and \
          truncate the WAL.")
    Term.(const run $ db_arg)

let verify_cmd =
  let run dir =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let r = Database.verify db in
            Printf.printf "pages checked: %d\n" r.Database.pages_checked;
            Printf.printf "corrupt pages: %s\n"
              (match r.Database.corrupt_pages with
              | [] -> "none"
              | ps -> String.concat "," (List.map string_of_int ps));
            Printf.printf "WAL records: %d\n" r.Database.wal_records;
            Printf.printf "WAL torn-tail bytes cut at open: %d\n"
              r.Database.wal_torn_bytes;
            (match Database.last_recovery db with
            | Some rep ->
                Printf.printf "recovery: redone %d, undone %d, losers %s\n"
                  rep.Rx_wal.Recovery.redone rep.Rx_wal.Recovery.undone
                  (match rep.Rx_wal.Recovery.losers with
                  | [] -> "none"
                  | l -> String.concat "," (List.map string_of_int l))
            | None -> ());
            (match Database.health db with
            | `Healthy -> print_endline "health: ok"
            | `Degraded reason ->
                Printf.printf "health: DEGRADED (%s)\n" reason);
            if r.Database.corrupt_pages <> [] || Database.health db <> `Healthy
            then failwith "integrity check failed"))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check every page checksum and report recovery/WAL state; exits \
          non-zero if corruption is found or the database is degraded.")
    Term.(const run $ db_arg)

let restore_cmd =
  let target_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "target" ] ~docv:"DIR"
          ~doc:"Fresh directory to restore into (must not hold a database).")
  in
  let to_lsn_arg =
    Arg.(
      value
      & opt (some int64) None
      & info [ "to-lsn" ] ~docv:"LSN"
          ~doc:
            "Restore the state as of this LSN (exclusive) — a durable LSN \
             observed earlier, e.g. $(b,durable_lsn) from $(b,rx stats \
             --json). Default: the end of the source's history.")
  in
  let run dir target to_lsn =
    handle_errors (fun () ->
        (* offline: replays the source's archive + live WAL, never writes
           to the source *)
        let r = Database.restore ?to_lsn ~source:dir ~target () in
        Printf.printf "restored %s at LSN %Ld into %s\n" dir
          r.Database.rst_stop_lsn target;
        Printf.printf "records replayed: %d\n" r.Database.rst_records;
        Printf.printf "open transactions rolled back at the cut: %s (%d updates)\n"
          (match r.Database.rst_losers with
          | [] -> "none"
          | l -> String.concat "," (List.map string_of_int l))
          r.Database.rst_undone;
        Printf.printf "new WAL base: %Ld\n" r.Database.rst_new_base)
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Point-in-time restore: rebuild into a fresh directory the exact \
          state the source database had at a given LSN, from its WAL \
          archive plus live WAL. Requires archiving enabled from the first \
          checkpoint ($(b,rx init --archive)); run against a stopped \
          database or a file-level copy.")
    Term.(const run $ db_arg $ target_arg $ to_lsn_arg)

let stats_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full metrics registry as JSON.")
  in
  let run dir json =
    handle_errors (fun () ->
        with_db dir (fun db ->
            let s = Database.stats db in
            if json then
              (* the canonical stats document, identical to what rxd's
                 Stats operation serves (net.* instruments included) *)
              print_endline (Rx_obs.Json.to_string (Stats_report.json db))
            else
              Printf.printf
                "tables: %d\ndocuments: %d\npacked records: %d\nNodeID index entries: %d\nvalue index entries: %d\ndata pages: %d\nWAL bytes appended: %d\n"
                s.Database.tables s.Database.documents s.Database.xml_records
                s.Database.node_index_entries s.Database.value_index_entries
                s.Database.data_pages s.Database.log_bytes))
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show storage statistics.")
    Term.(const run $ db_arg $ json_arg)

let () =
  let info =
    Cmd.info "rx" ~version:"1.0.0"
      ~doc:"System R/X: a native XML database on relational infrastructure."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            init_cmd; create_table_cmd; index_cmd; create_text_index_cmd;
            register_schema_cmd; bind_schema_cmd; insert_cmd; load_cmd; get_cmd;
            query_cmd; xquery_cmd; search_cmd; exec_cmd; checkpoint_cmd;
            verify_cmd; restore_cmd; stats_cmd;
          ]))
