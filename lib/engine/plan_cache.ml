(* Compiled-plan cache: optimized results keyed by statement shape
   (Normalize.canonicalize) under a session's settings signature,
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
   of growing the cache without bound. *)

(* A hash table threaded onto a doubly-linked recency list, most recent at
   the front: a hit moves its node to the front and eviction pops the back,
   so both are O(1) whatever the table's size. *)
module Lru = struct
  type 'a node =
    | Nil
    | Node of {
        key : string;
        value : 'a;
        mutable prev : 'a node;
        mutable next : 'a node;
      }

  type 'a t = {
    tbl : (string, 'a node) Hashtbl.t;
    mutable front : 'a node;
    mutable back : 'a node;
  }

  let create () = { tbl = Hashtbl.create 64; front = Nil; back = Nil }
  let length t = Hashtbl.length t.tbl

  let reset t =
    Hashtbl.reset t.tbl;
    t.front <- Nil;
    t.back <- Nil

  let unlink t = function
    | Nil -> ()
    | Node n ->
      (match n.prev with Nil -> t.front <- n.next | Node p -> p.next <- n.next);
      (match n.next with Nil -> t.back <- n.prev | Node x -> x.prev <- n.prev);
      n.prev <- Nil;
      n.next <- Nil

  let push_front t = function
    | Nil -> ()
    | Node n as node ->
      n.next <- t.front;
      (match t.front with Nil -> t.back <- node | Node f -> f.prev <- node);
      t.front <- node

  (* The value under [key], which becomes the most recently used. *)
  let use t key =
    match Hashtbl.find_opt t.tbl key with
    | Some (Node n as node) ->
      if t.front != node then begin
        unlink t node;
        push_front t node
      end;
      Some n.value
    | Some Nil | None -> None

  let remove t key =
    match Hashtbl.find_opt t.tbl key with
    | Some node ->
      Hashtbl.remove t.tbl key;
      unlink t node
    | None -> ()

  let replace t key value =
    remove t key;
    let node = Node { key; value; prev = Nil; next = Nil } in
    Hashtbl.replace t.tbl key node;
    push_front t node

  (* Drop least-recently-used entries until at most [cap] remain; returns
     how many went. *)
  let shrink t cap =
    let evicted = ref 0 in
    while Hashtbl.length t.tbl > cap do
      match t.back with
      | Node n as node ->
        unlink t node;
        Hashtbl.remove t.tbl n.key;
        incr evicted
      | Nil -> assert false (* a non-empty table has a back *)
    done;
    !evicted
end

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
  mutable passed : Rel.Value.ty option array list;
      (* the binding type vectors already type-checked against this plan *)
}

type t = {
  lock : Mutex.t;
      (* the cache is shared by all sessions and probed under the engine's
         *shared* latch (read-only statements run concurrently), so its two
         tables guard themselves; the critical sections are hash lookups and
         version checks, far below statement cost *)
  plans : entry Lru.t;
  texts : (string * Rel.Value.t array) Lru.t;
      (* statement text -> (shape key, parameter vector): identical text
         repeats skip parsing and canonicalizing entirely — the hit path of
         [Database.query] costs a hash lookup and a version check *)
  mutable cap : int;
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
    plans = Lru.create (); texts = Lru.create (); cap = default_cap;
    validate = true; on_evict = ignore }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let clear t =
  locked t (fun () ->
      Lru.reset t.plans;
      Lru.reset t.texts)

let set_validation t on = t.validate <- on

let set_evict_hook t f = t.on_evict <- f

let size t = Lru.length t.plans
let text_size t = Lru.length t.texts
let cap t = t.cap

(* Evict past the cap, reporting the count. *)
let shrink t table =
  let evicted = Lru.shrink table t.cap in
  if evicted > 0 then t.on_evict evicted

let set_cap t n =
  let n = max 1 n in
  locked t (fun () ->
      t.cap <- n;
      shrink t t.plans;
      shrink t t.texts)

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

let types params = Array.map Rel.Value.type_of params

let find ?bind t cat key =
  locked t (fun () ->
      match Lru.use t.plans key with
      | None -> Miss
      | Some e when (not t.validate) || deps_valid cat e.deps ->
        Option.iter
          (fun (params, check) ->
            let tys = types params in
            if not (List.mem tys e.passed) then begin
              check ();
              e.passed <- tys :: e.passed
            end)
          bind;
        Hit e.result
      | Some _ ->
        Lru.remove t.plans key;
        Invalidated)

let store ?passed t key r =
  let passed = Option.to_list (Option.map types passed) in
  locked t (fun () ->
      Lru.replace t.plans key { result = r; deps = deps_of r; passed };
      shrink t t.plans)

let memo_text t ~sql ~key ~values =
  locked t (fun () ->
      Lru.replace t.texts sql (key, values);
      shrink t t.texts)

let text_entry t sql = locked t (fun () -> Lru.use t.texts sql)
