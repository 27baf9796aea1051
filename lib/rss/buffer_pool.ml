(* Classic O(1) LRU: hash table from page id to an intrusive doubly-linked
   node; the list is kept in recency order with [head] most recent. *)

type node = {
  page_id : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cap : int;
  table : node Int_table.t;
  mutable head : node option;
  mutable tail : node option;
  mutable mru : int;  (* id at [head], or min_int when empty *)
  m : Mutex.t;
  mutable latched : bool;
      (* serialize [touch] under the mutex; set while the engine serves
         several sessions, whose readers share the pool across domains *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  { cap = capacity;
    table = Int_table.create (2 * capacity);
    head = None;
    tail = None;
    mru = min_int;
    m = Mutex.create ();
    latched = false }

let capacity t = t.cap
let resident t = Int_table.length t.table
let contains t id = Int_table.mem t.table id

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch_raw t id =
  (* Touching the page already at the front needs no relink and cannot miss.
     Scans fetch runs of tuples from the same page, so this one-compare path
     carries nearly every RSI call. *)
  if id = t.mru then `Hit
  else begin
    t.mru <- id;
    match Int_table.find_opt t.table id with
    | Some n ->
      unlink t n;
      push_front t n;
      `Hit
    | None ->
      if Int_table.length t.table >= t.cap then begin
        (* Pages have no separate disk image here, so there is no literal
           dirty-page writeback; the eviction is the durability-relevant
           moment the failpoint models. *)
        Failpoint.hit "buffer_pool.evict";
        match t.tail with
        | Some victim ->
          unlink t victim;
          Int_table.remove t.table victim.page_id
        | None -> assert false
      end;
      let n = { page_id = id; prev = None; next = None } in
      Int_table.replace t.table id n;
      push_front t n;
      `Miss
  end

let set_latched t b = t.latched <- b

let touch t id =
  (* The unlatched path stays a direct call: serial execution — the common
     case — pays nothing for the mutex's existence. *)
  if not t.latched then touch_raw t id
  else begin
    Mutex.lock t.m;
    match touch_raw t id with
    | r ->
      Mutex.unlock t.m;
      r
    | exception e ->
      Mutex.unlock t.m;
      raise e
  end

let evict_all t =
  Int_table.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.mru <- min_int
