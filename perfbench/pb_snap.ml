(* Host snapshots: the public counters of a running engine, flattened to
   named numbers so they cross the host's control pipe as one text line.
   Cumulative counters are diffed between two snapshots; gauges (heap
   shape, GC heap size, peak RSS) are read from the later one. *)

type t = (string * float) list

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" Fun.id
      | _ -> find ()
    in
    let v = find () in
    close_in ic;
    v

(* Per relation: heap pages, stored versions, live (undeleted) tuples and
   their serialized bytes. Counter-neutral: reads the raw heap. *)
let relation_shape (rel : Catalog.relation) =
  let versions = Catalog.scan_versions rel in
  let live = List.filter (fun (_, _, _, xmax) -> xmax = 0) versions in
  ( List.length (Rss.Segment.page_ids rel.Catalog.segment),
    List.length versions,
    List.length live,
    List.fold_left (fun a (_, t, _, _) -> a + Rel.Tuple.serialized_size t) 0 live )

let collect db : t =
  let eng = Database.engine db in
  let c = Rss.Pager.base_counters (Engine.pager eng) in
  let g = Engine.group_commit_stats eng in
  let gc = Gc.quick_stat () in
  let wal = Engine.wal eng in
  let rels =
    List.sort
      (fun a b -> compare a.Catalog.rel_name b.Catalog.rel_name)
      (Catalog.relations (Engine.catalog eng))
  in
  let shapes = List.map (fun r -> (r.Catalog.rel_name, relation_shape r)) rels in
  let total f = float_of_int (List.fold_left (fun a (_, s) -> a + f s) 0 shapes) in
  let f = float_of_int in
  [ ("page_fetches", f c.Rss.Counters.page_fetches);
    ("buffer_hits", f c.Rss.Counters.buffer_hits);
    ("rsi_calls", f c.Rss.Counters.rsi_calls);
    ("pages_written", f c.Rss.Counters.pages_written);
    ("sort_runs", f c.Rss.Counters.sort_runs);
    ("merge_passes", f c.Rss.Counters.merge_passes);
    ("plan_cache_hits", f c.Rss.Counters.plan_cache_hits);
    ("plan_cache_misses", f c.Rss.Counters.plan_cache_misses);
    ("plan_cache_invalidations", f c.Rss.Counters.plan_cache_invalidations);
    ("feedback_retirements", f c.Rss.Counters.feedback_retirements);
    ("wal_bytes", f (Rss.Wal.byte_size wal));
    ("wal_flushes", f (Rss.Wal.flushes wal));
    ("commits", f g.Engine.enqueued);
    ("group_flushes", f g.Engine.flushes);
    ("grouped_commits", f g.Engine.grouped_commits);
    ("lock_blocks", f (Engine.block_epoch eng));
    ("gc_minor", f gc.Gc.minor_collections);
    ("gc_major", f gc.Gc.major_collections);
    ("gc_heap_words", f gc.Gc.heap_words);
    ("vm_hwm_kb", vm_hwm_kb ());
    ("heap_pages", total (fun (p, _, _, _) -> p));
    ("versions", total (fun (_, v, _, _) -> v));
    ("live_tuples", total (fun (_, _, l, _) -> l));
    ("live_bytes", total (fun (_, _, _, b) -> b)) ]
  @ List.concat_map
      (fun (name, (p, _, l, _)) ->
        [ ("rows." ^ name, f l); ("pages." ^ name, f p) ])
      shapes

let to_line (s : t) =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) s)

let of_line line : t =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
        Some
          ( String.sub kv 0 i,
            float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
      | None -> None)
    (String.split_on_char ' ' (String.trim line))

let get (s : t) k = try List.assoc k s with Not_found -> 0.

(* Cumulative counters move between snapshots; everything else is a gauge. *)
let gauges =
  [ "gc_heap_words"; "vm_hwm_kb"; "heap_pages"; "versions"; "live_tuples";
    "live_bytes" ]

let is_gauge k =
  List.mem k gauges
  || (String.length k > 5 && (String.sub k 0 5 = "rows." || String.sub k 0 6 = "pages."))

let diff ~(after : t) ~(before : t) : t =
  List.map (fun (k, v) -> if is_gauge k then (k, v) else (k, v -. get before k)) after
