(* SCAN — the RSS per-version path in time. The paper charges a segment scan
   one page fetch per non-empty page and one RSI call per returned tuple, and
   keeps SARG evaluation inside the RSS because it is cheap per tuple; this
   bench reports what a version actually costs: nanoseconds per examined
   version of a segment scan (without a snapshot, under an MVCC snapshot,
   and with a SARG), microseconds per random index probe, the minor-heap
   words allocated per returned tuple and per probe, and the exact RSI and
   page counters each run charges. Data only: nothing is gated. *)

module V = Rel.Value

let rows = if Bench_util.smoke then 2_000 else 45_000
let probes = if Bench_util.smoke then 200 else 20_000
let trials = if Bench_util.smoke then 3 else 15

(* One relation shaped like the served benchmark's LINE table (~88 versions
   per page), indexed on its first column, written by one committed
   transaction per 100 rows so a snapshot's visibility checks read the MVCC
   status table rather than frozen versions. *)
let build () =
  let pager = Rss.Pager.create ~buffer_pages:256 () in
  let seg = Rss.Segment.create pager in
  let mvcc = Rss.Mvcc.create () in
  let index = Rss.Btree.create pager in
  for i = 0 to rows - 1 do
    let xid = 1 + (i / 100) in
    if i mod 100 = 0 then Rss.Mvcc.begin_txn mvcc xid;
    let tuple =
      Rel.Tuple.make
        [ V.Int i; V.Int (i mod 50); V.Int (i * 7 mod 1000);
          V.Str (Printf.sprintf "L%06d" i) ]
    in
    let tid = Rss.Segment.insert seg ~xmin:xid ~rel_id:1 tuple in
    Rss.Btree.insert index [| V.Int i |] tid;
    if i mod 100 = 99 || i = rows - 1 then ignore (Rss.Mvcc.commit mvcc xid)
  done;
  (pager, seg, mvcc, index)

(* Pull a scan to its end without keeping its tuples: the time is the
   scan's, not a result list's. *)
let rec drain scan = match scan () with Some _ -> drain scan | None -> ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median wall time of [trials] runs of [f], the counters one cold run
   (buffer pool emptied) charges, and the minor-heap words one warm run
   (right after the timed runs) allocates. *)
let measure pager f =
  let c = Rss.Pager.counters pager in
  Rss.Pager.evict_all pager;
  let before = Rss.Counters.snapshot c in
  f ();
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot c) ~before in
  let time () =
    Rss.Pager.evict_all pager;
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let dt = median (List.init trials (fun _ -> time ())) in
  let w0 = Gc.minor_words () in
  f ();
  (dt, d, Gc.minor_words () -. w0)

let run () =
  Bench_util.section "SCAN: RSS per-version cost (segment scan, index probe)";
  let pager, seg, mvcc, index = build () in
  let snap () = Some (Rss.Mvcc.view mvcc (Rss.Mvcc.statement_snapshot mvcc)) in
  let examined = rows in
  let seg_case name ~snap ~sargs =
    let dt, d, words =
      measure pager (fun () ->
          drain (Rss.Scan.open_segment_scan seg ~rel_id:1 ?snap:(snap ()) ~sargs ()))
    in
    (name, dt *. 1e9 /. float_of_int examined, "ns/version", d, words, None)
  in
  let seg_cases =
    [ seg_case "segment scan, no snapshot" ~snap:(fun () -> None)
        ~sargs:Rss.Sarg.always_true;
      seg_case "segment scan, snapshot" ~snap ~sargs:Rss.Sarg.always_true;
      seg_case "segment scan, snapshot, SARG c1 = 7" ~snap
        ~sargs:[ [ { Rss.Sarg.col = 1; op = Rss.Sarg.Eq; value = V.Int 7 } ] ] ]
  in
  let keys =
    let st = Random.State.make [| 33 |] in
    List.init probes (fun _ -> Random.State.int st rows)
  in
  let probe_case =
    let dt, d, words =
      measure pager (fun () ->
          List.iter
            (fun k ->
              let key = ([| V.Int k |], `Inclusive) in
              drain
                (Rss.Scan.open_index_scan seg ~rel_id:1 ~index ~lo:key ~hi:key
                   ?snap:(snap ()) ()))
            keys)
    in
    ( Printf.sprintf "index probe x%d, snapshot" probes,
      dt *. 1e6 /. float_of_int probes,
      "us/probe",
      d,
      words,
      Some (words /. float_of_int probes) )
  in
  let cases = seg_cases @ [ probe_case ] in
  Printf.printf "%d versions on %d pages, %d trials (median), %d cores\n" rows
    (let _, _, nonempty = Rss.Segment.census seg ~rel_id:1 in
     nonempty)
    trials
    (Domain.recommended_domain_count ());
  let per_tuple words (d : Rss.Counters.t) = words /. float_of_int (max 1 d.rsi_calls) in
  Bench_util.print_table
    ~header:
      [ "case"; "time"; "unit"; "words/tuple"; "words/probe"; "rsi_calls"; "page_fetches";
        "buffer_hits" ]
    (List.map
       (fun (name, v, unit, (d : Rss.Counters.t), words, per_probe) ->
         [ name; Bench_util.f2 v; unit; Bench_util.f2 (per_tuple words d);
           Option.fold ~none:"-" ~some:Bench_util.f2 per_probe;
           string_of_int d.rsi_calls; string_of_int d.page_fetches;
           string_of_int d.buffer_hits ])
       cases);
  Bench_util.write_json ~file:"BENCH_scan.json"
    (Bench_util.J_obj
       [ ("rows", Bench_util.J_int rows);
         ("probes", Bench_util.J_int probes);
         ("trials", Bench_util.J_int trials);
         ( "cases",
           Bench_util.J_list
             (List.map
                (fun (name, v, unit, (d : Rss.Counters.t), words, per_probe) ->
                  Bench_util.J_obj
                    ([ ("case", Bench_util.J_str name);
                       ("value", Bench_util.J_float v);
                       ("unit", Bench_util.J_str unit);
                       ("words_per_tuple", Bench_util.J_float (per_tuple words d)) ]
                    @ Option.fold ~none:[]
                        ~some:(fun w -> [ ("words_per_probe", Bench_util.J_float w) ])
                        per_probe
                    @ [ ("rsi_calls", Bench_util.J_int d.rsi_calls);
                      ("page_fetches", Bench_util.J_int d.page_fetches);
                        ("buffer_hits", Bench_util.J_int d.buffer_hits) ]))
                cases) ) ])
