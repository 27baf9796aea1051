(* The benchmark's server host: seeds an engine from a SQL script, serves it
   with Server.start on a Unix-domain socket, and answers a line protocol on
   stdin/stdout so the benchmark can read the engine's public counters from
   outside the measured connections:

     (startup)  prints "listening" once seeded, analyzed and serving
     snap       waits until every client session has closed (session
                counters fold into the engine totals only at close), then
                prints "snap k=v ..." (see Pb_snap)
     check      prints "check ok" or "check <message>" (heap/index integrity)
     quit / EOF stops the server and exits 0

   Usage: host.exe SCRIPT SOCKET BUFFER_PAGES WORKERS

   Flush policy, fixed: in-memory WAL, group commit on, COMMIT_DELAY 0, no
   flush hook (no simulated fsync). *)

(* The seed script holds one statement per line. Executing it line by line
   keeps one statement's syntax tree in memory at a time, rather than the
   whole script's. *)
let seed db script =
  In_channel.with_open_bin script (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" -> go ()
        | Some stmt ->
          ignore (Database.exec_script db stmt);
          go ()
      in
      go ())

(* Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so the peak
   a snapshot reads covers warm-up and measurement, not seeding. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let () =
  match Sys.argv with
  | [| _; script; socket; pages; workers |] ->
    let db = Database.create ~buffer_pages:(int_of_string pages) () in
    (match seed db script with
     | () -> ()
     | exception Database.Error msg ->
       Printf.eprintf "host: seed script failed: %s\n" msg;
       exit 1);
    let eng = Database.engine db in
    Engine.set_group_commit eng true;
    Engine.set_commit_delay eng 0.;
    let srv =
      Server.start ~workers:(int_of_string workers) ~engine:eng
        (Server.Unix_sock socket)
    in
    reset_peak_rss ();
    print_endline "listening";
    let rec serve () =
      match input_line stdin with
      | exception End_of_file -> ()
      | "snap" ->
        while eng.Engine.live_sessions > 1 do Unix.sleepf 0.001 done;
        print_endline ("snap " ^ Pb_snap.to_line (Pb_snap.collect db));
        serve ()
      | "check" ->
        (match Database.check_integrity db with
         | Ok () -> print_endline "check ok"
         | Error e -> print_endline ("check " ^ e));
        serve ()
      | "quit" -> ()
      | cmd ->
        Printf.eprintf "host: unknown command %S\n%!" cmd;
        serve ()
    in
    serve ();
    Server.stop srv
  | _ ->
    prerr_endline "usage: host.exe SCRIPT SOCKET BUFFER_PAGES WORKERS";
    exit 2
