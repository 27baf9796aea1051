type t = {
  next_id : int Atomic.t;
  data_pages : (int, Page.t) Hashtbl.t;
  pool : Buffer_pool.t;
  counters : Counters.t;
  buffer_pages : int;
  latch : Mutex.t;
  mutable parallel_depth : int;
      (* nesting of enter/exit_parallel; pool latched while > 0 *)
  mutable shared : bool;
      (* engine in multi-session (server) mode: concurrent reader statements
         may touch the pool from several domains, so keep it latched even
         outside parallel query phases *)
}

(* Per-domain scratch counters. Accounting lands in the domain-local record
   when one is installed — a worker domain under [as_worker], or a server
   session's statement under [with_counters] — and in the engine-global
   [t.counters] otherwise. Domain-local redirection is what lets concurrent
   reader statements on different domains bump counters without
   synchronization: each domain has exactly one writer target. *)
let scratch_key : Counters.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let cnt t =
  match Domain.DLS.get scratch_key with Some c -> c | None -> t.counters

let create ?(buffer_pages = 64) () =
  let counters = Counters.create () in
  { next_id = Atomic.make 0;
    data_pages = Hashtbl.create 1024;
    pool = Buffer_pool.create ~capacity:buffer_pages;
    counters;
    buffer_pages;
    latch = Mutex.create ();
    parallel_depth = 0;
    shared = false }

let counters t = cnt t
let base_counters t = t.counters

let with_counters _t c f =
  let saved = Domain.DLS.get scratch_key in
  Domain.DLS.set scratch_key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scratch_key saved) f
let buffer_pages t = t.buffer_pages

let alloc_page_id t =
  Failpoint.hit "pager.alloc_page";
  Atomic.fetch_and_add t.next_id 1

let alloc_data_page t =
  let id = alloc_page_id t in
  let p = Page.create ~id in
  Hashtbl.replace t.data_pages id p;
  p

let data_page t id = Hashtbl.find t.data_pages id

let touch t id =
  let c = cnt t in
  match Buffer_pool.touch t.pool id with
  | `Hit -> c.Counters.buffer_hits <- c.Counters.buffer_hits + 1
  | `Miss -> c.Counters.page_fetches <- c.Counters.page_fetches + 1

let note_page_written t =
  Failpoint.hit "pager.page_write";
  let c = cnt t in
  c.Counters.pages_written <- c.Counters.pages_written + 1

let note_rsi_call t =
  let c = cnt t in
  c.Counters.rsi_calls <- c.Counters.rsi_calls + 1

let note_sort_run t =
  let c = cnt t in
  c.Counters.sort_runs <- c.Counters.sort_runs + 1

let note_merge_pass t =
  let c = cnt t in
  c.Counters.merge_passes <- c.Counters.merge_passes + 1

let evict_all t = Buffer_pool.evict_all t.pool

let refresh_pool_latch t =
  Buffer_pool.set_latched t.pool (t.shared || t.parallel_depth > 0)

let set_shared t on =
  t.shared <- on;
  refresh_pool_latch t

let enter_parallel t =
  if Failpoint.enabled () then
    invalid_arg
      "Pager.enter_parallel: failpoint registry armed (single-domain-only)";
  t.parallel_depth <- t.parallel_depth + 1;
  if t.parallel_depth = 1 then refresh_pool_latch t

let exit_parallel t =
  t.parallel_depth <- t.parallel_depth - 1;
  if t.parallel_depth = 0 then refresh_pool_latch t

let as_worker t f =
  let scratch = Counters.create () in
  Domain.DLS.set scratch_key (Some scratch);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set scratch_key None;
      Mutex.lock t.latch;
      Counters.add scratch ~into:t.counters;
      Mutex.unlock t.latch)
    f
