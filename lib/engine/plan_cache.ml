(* Compiled-plan cache: optimized results keyed by statement fingerprint
   (Normalize.fingerprint) or, for prepared statements, by statement text,
   invalidated precisely through per-relation
   stats_version and feedback_gen counters. An entry records, for every
   relation any of its blocks scans, the (name, rel_id, stats_version,
   feedback_gen) tuple observed at compile time; a probe revalidates against
   the live catalog, so UPDATE STATISTICS or index DDL on a dependency
   (which bump the version), a runtime cardinality-feedback correction
   (which bumps feedback_gen) and DROP/CREATE TABLE (which change or remove
   the rel_id) each retire exactly the plans that depended on the changed
   relation.

   Both tables are LRU-bounded (SET PLAN_CACHE_SIZE): a long-lived server
   session issuing millions of distinct statements replaces entries instead
   of growing the cache without bound. Recency is a monotonic tick stamped
   on every hit; eviction scans for the stalest entry — an O(size) walk that
   only runs on an insert past the cap, where the preceding optimization
   (or parse, for the text memo) dwarfs it. *)

type dep = {
  rel_name : string;
  rel_id : int;
  version : int;
  feedback : int;
      (* the relation's feedback_gen at compile time: a recorded cardinality
         correction retires the plans costed under the stale estimate *)
}

type entry = {
  result : Optimizer.result;
  deps : dep list;
  mutable used : int;  (* recency tick for LRU eviction *)
}

type text_entry = {
  t_key : string;
  t_values : Rel.Value.t list;
  mutable t_used : int;
}

type t = {
  lock : Mutex.t;
      (* the cache is shared by all sessions and probed under the engine's
         *shared* latch (read-only statements run concurrently), so its two
         tables guard themselves; the critical sections are hash lookups and
         version checks, far below statement cost *)
  tbl : (string, entry) Hashtbl.t;
  texts : (string, text_entry) Hashtbl.t;
      (* statement text -> (fingerprint key, extracted literals): identical
         text repeats skip parsing and fingerprinting entirely — the hit
         path of [Database.query] costs a hash lookup and a version check *)
  mutable cap : int;
  mutable tick : int;
  mutable validate : bool;
      (* debug hook: when false, probes skip the dep check and serve whatever
         is cached — used by the fuzz harness to prove the differential
         tester catches stale-plan corruption (fuzz_main --break-invalidation) *)
  mutable on_evict : int -> unit;
      (* eviction notification (count), wired by the engine to the active
         Rss.Counters record *)
}

type probe =
  | Hit of Optimizer.result
  | Miss
  | Invalidated

let default_cap = 512

let create () =
  { lock = Mutex.create ();
    tbl = Hashtbl.create 64; texts = Hashtbl.create 64; cap = default_cap;
    tick = 0; validate = true; on_evict = ignore }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      Hashtbl.reset t.texts)

let set_validation t on = t.validate <- on

let set_evict_hook t f = t.on_evict <- f

let size t = Hashtbl.length t.tbl
let text_size t = Hashtbl.length t.texts
let cap t = t.cap

let tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Evict least-recently-used entries until [table] holds at most [cap]. *)
let shrink_to t cap table used =
  let evicted = ref 0 in
  while Hashtbl.length table > cap do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best <= used e -> acc
          | _ -> Some (k, used e))
        table None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove table k;
      incr evicted
    | None -> ()
  done;
  if !evicted > 0 then t.on_evict !evicted

let set_cap t n =
  let n = max 1 n in
  locked t (fun () ->
      t.cap <- n;
      shrink_to t n t.tbl (fun e -> e.used);
      shrink_to t n t.texts (fun e -> e.t_used))

let rec blocks_of (r : Optimizer.result) acc =
  List.fold_left
    (fun acc (_, sub) -> blocks_of sub acc)
    (r.Optimizer.block :: acc) r.Optimizer.subresults

let deps_of (r : Optimizer.result) =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (b : Semant.block) ->
      List.iter
        (fun (tr : Semant.table_ref) ->
          let rel = tr.Semant.rel in
          Hashtbl.replace seen rel.Catalog.rel_id
            { rel_name = rel.Catalog.rel_name;
              rel_id = rel.Catalog.rel_id;
              version = rel.Catalog.stats_version;
              feedback = rel.Catalog.feedback_gen })
        b.Semant.tables)
    (blocks_of r []);
  Hashtbl.fold (fun _ d acc -> d :: acc) seen []

let deps_valid cat deps =
  List.for_all
    (fun d ->
      match Catalog.find_relation cat d.rel_name with
      | Some rel ->
        rel.Catalog.rel_id = d.rel_id
        && rel.Catalog.stats_version = d.version
        && rel.Catalog.feedback_gen = d.feedback
      | None -> false)
    deps

let find t cat key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> Miss
      | Some e when (not t.validate) || deps_valid cat e.deps ->
        e.used <- tick t;
        Hit e.result
      | Some _ ->
        Hashtbl.remove t.tbl key;
        Invalidated)

let store t key r =
  locked t (fun () ->
      Hashtbl.replace t.tbl key { result = r; deps = deps_of r; used = tick t };
      shrink_to t t.cap t.tbl (fun e -> e.used))

let memo_text t ~sql ~key ~values =
  locked t (fun () ->
      Hashtbl.replace t.texts sql
        { t_key = key; t_values = values; t_used = tick t };
      shrink_to t t.cap t.texts (fun e -> e.t_used))

let text_entry t sql =
  locked t (fun () ->
      match Hashtbl.find_opt t.texts sql with
      | None -> None
      | Some e ->
        e.t_used <- tick t;
        Some (e.t_key, e.t_values))
