(* A process-wide pool of worker domains for the server's connection
   handlers.

   OCaml 5 domains are heavyweight (each carries a minor heap and
   participates in every GC), so the server never spawns one per
   connection: it submits handlers to this fixed pool, which grows on demand
   up to [max_workers] and is never torn down — idle workers block on the
   task queue's condition variable and cost nothing, and process exit
   (Stdlib.exit terminates all domains) reaps them.

   Scheduling is deliberately simple: one global FIFO, any worker takes the
   next task. A handler holds its worker for the connection's lifetime, so
   connections beyond the worker count queue until one closes. *)

let max_workers = 8

let m = Mutex.create ()
let cv = Condition.create ()
let tasks : (unit -> unit) Queue.t = Queue.create ()
let workers = ref 0

(* Pool workers get a large nursery (words; SYSTEMR_WORKER_MINOR_HEAP
   overrides). Every minor collection is a stop-the-world rendezvous of all
   domains, and on a loaded box a runnable-but-unscheduled peer can turn each
   rendezvous into a full scheduler quantum — with the 256k-word default a
   busy worker pays that every few thousand queries. Workers are long-lived
   and few, so a multi-megabyte nursery per worker is cheap insurance.
   [Gc.set] is domain-local and spawned domains do not inherit it, hence the
   call inside the worker, not at pool setup. *)
let worker_minor_heap =
  match Sys.getenv_opt "SYSTEMR_WORKER_MINOR_HEAP" with
  | Some s -> (try max 262_144 (int_of_string s) with Failure _ -> 2_097_152)
  | None -> 2_097_152

let rec worker_loop () =
  Mutex.lock m;
  while Queue.is_empty tasks do
    Condition.wait cv m
  done;
  let task = Queue.pop tasks in
  Mutex.unlock m;
  (try task () with _ -> ());
  worker_loop ()

let worker_main () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap };
  worker_loop ()

let spawn_locked () =
  incr workers;
  ignore (Domain.spawn worker_main : unit Domain.t)

let ensure n =
  let n = min (max 1 n) max_workers in
  Mutex.lock m;
  while !workers < n do
    spawn_locked ()
  done;
  Mutex.unlock m

let submit task =
  Mutex.lock m;
  if !workers = 0 then spawn_locked ();
  Queue.push task tasks;
  Condition.signal cv;
  Mutex.unlock m
