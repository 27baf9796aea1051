(* The image format is documented in snapshot.mli. [checkpoint] is the
   log's transaction id; recovery moves the loaded engine's ids past it. *)
let checkpoint = 1

let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Snapshot.load: " ^ m)) fmt

let ddl cat rels =
  let b = Buffer.create 1024 in
  let add st = Ast.add_sql b st; Buffer.add_string b ";\n" in
  List.iter
    (fun (r : Catalog.relation) ->
      let table = r.Catalog.rel_name and schema = r.Catalog.schema in
      let name c = (Rel.Schema.column schema c).Rel.Schema.name in
      let columns =
        List.map
          (fun { Rel.Schema.name; ty } -> { Ast.col_name = name; col_ty = ty })
          (Rel.Schema.columns schema)
      in
      add (Ast.Create_table { table; columns });
      List.iter
        (fun { Catalog.idx_name; key_cols; clustered; _ } ->
          add
            (Ast.Create_index
               { index = idx_name; table; columns = List.map name key_cols;
                 clustered }))
        (Catalog.indexes_on cat r))
    rels;
  Buffer.contents b

(* Each Insert names its relation by position in the DDL, which is the
   rel_id the loaded catalog gives it: a dropped table's gap in the old ids
   cannot misroute rows. *)
let log view rels =
  let b = Buffer.create 65536 in
  let add r = Buffer.add_string b (Rss.Wal.encode r) in
  add (Rss.Wal.Begin checkpoint);
  List.iteri
    (fun pos (r : Catalog.relation) ->
      let tid = ref (Rss.Tid.make ~page:0 ~slot:0) in
      let next =
        Rss.Scan.open_segment_scan r.Catalog.segment ~rel_id:r.Catalog.rel_id
          ~snap:view ~tid ()
      in
      let rec go () =
        match next () with
        | None -> ()
        | Some tuple ->
          add (Rss.Wal.Insert { txn = checkpoint; rel_id = pos; tid = !tid; tuple });
          go ()
      in
      go ())
    rels;
  add (Rss.Wal.Commit checkpoint);
  Buffer.contents b

(* One statement snapshot under the shared latch: concurrent writers are
   excluded for the scan, and another session's uncommitted versions are
   invisible to it, so the image is the committed state. *)
let save db =
  let eng = Database.engine db in
  Engine.with_read_latch eng @@ fun () ->
  let cat = Engine.catalog eng and m = Engine.mvcc eng in
  let rels = Catalog.relations cat in
  let ddl = ddl cat rels
  and log = log (Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m)) rels in
  Printf.sprintf "systemr-snapshot 2 %d %d\n%s%s" (String.length ddl)
    (String.length log) ddl log

(* The image's DDL and log, once the header's lengths account for every
   byte of it. *)
let split s =
  let line =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  (* a length is at most the input's, so the sum below cannot overflow *)
  let len x =
    match int_of_string_opt x with
    | Some n when n >= 0 && n <= String.length s && string_of_int n = x -> n
    | _ -> bad "bad header"
  in
  match String.split_on_char ' ' line with
  | [ "systemr-snapshot"; "2"; d; l ] ->
    let off = String.length line + 1 and d = len d and l = len l in
    if off + d + l <> String.length s then
      bad "%d bytes, the header promises %d" (String.length s) (off + d + l);
    (String.sub s off d, String.sub s (off + d) l)
  | _ -> bad "bad header"

(* The number of Inserts, once the log decodes byte for byte to exactly one
   Begin/Insert.../Commit transaction. [Rss.Wal.of_bytes] would drop a torn
   tail without a word. *)
let inserts log =
  let next off =
    try Rss.Wal.decode log off
    with Invalid_argument _ -> bad "log record at byte %d does not decode" off
  in
  let not_one () = bad "the log is not one checkpoint transaction" in
  match next 0 with
  | Rss.Wal.Begin c, off ->
    let rec go n off =
      match next off with
      | Rss.Wal.Insert { txn; _ }, off when txn = c -> go (n + 1) off
      | Rss.Wal.Commit c', off when c' = c && off = String.length log -> n
      | _ -> not_one ()
    in
    go 0 off
  | _ -> not_one ()

let load ?buffer_pages ?w s =
  let ddl, log = split s in
  (match Parser.parse_script ddl with
   | stmts ->
     List.iter
       (function
         | Ast.Create_table _ | Ast.Create_index _ -> ()
         | st -> bad "the DDL holds %s" (Ast.to_sql st))
       stmts
   | exception Parser.Error (m, off) -> bad "DDL at byte %d: %s" off m);
  let n = inserts log in
  let db = Database.create ?buffer_pages ?w () in
  (try ignore (Database.exec_script db ddl)
   with Database.Error m -> bad "DDL: %s" m);
  let restored = Database.recover db log in
  if restored <> n then bad "%d of %d rows restored" restored n;
  Database.update_statistics db;
  db

let save_to_file db path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (save db))

let load_from_file ?buffer_pages ?w path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      load ?buffer_pages ?w (really_input_string ic n))
