type txn = int

type resource =
  | Relation of int
  | Tuple_of of int * Tid.t

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Blocked of txn list
  | Deadlock of txn list

type entry = {
  mutable holders : (txn * mode) list;   (* grant order, newest first *)
  mutable queue : (txn * mode) list;     (* arrival order, oldest first *)
}

(* Invariant: an entry is in [table] iff it has a holder or a queued
   request, and [r] is in [txn]'s [touched] list iff [txn] holds or is
   queued on [r]. So release walks only the releasing transaction's resources, and the
   table never outgrows the locks currently held or awaited. *)
type t = {
  table : (resource, entry) Hashtbl.t;
  touched : (txn, resource list) Hashtbl.t;  (* acquisition order, newest first *)
  waits_for : (txn, txn list) Hashtbl.t;  (* waiter -> blockers *)
  mutable last_granted : (txn * resource * mode) list;
}

let create () =
  { table = Hashtbl.create 64;
    touched = Hashtbl.create 16;
    waits_for = Hashtbl.create 16;
    last_granted = [] }

let touched t txn = Option.value (Hashtbl.find_opt t.touched txn) ~default:[]

let compatible requested held =
  match requested, held with
  | Shared, Shared -> true
  | Shared, Exclusive | Exclusive, Shared | Exclusive, Exclusive -> false

let conflicting_holders e txn mode =
  List.filter_map
    (fun (h, hm) ->
      if h = txn then None else if compatible mode hm then None else Some h)
    e.holders

(* DFS over the wait-for graph: would making [waiter] wait on [blockers]
   close a cycle back to [waiter]? *)
let find_cycle t waiter blockers =
  let rec reachable seen goal tx =
    if tx = goal then Some (List.rev (tx :: seen))
    else if List.mem tx seen then None
    else
      let nexts = Option.value (Hashtbl.find_opt t.waits_for tx) ~default:[] in
      List.find_map (reachable (tx :: seen) goal) nexts
  in
  List.find_map (reachable [] waiter) blockers

let grant e txn mode =
  let without = List.filter (fun (h, _) -> h <> txn) e.holders in
  e.holders <- (txn, mode) :: without

(* Called just before [txn] is granted or queued on [r]: its first hold or
   request there enters the table (if [e] is new) and [txn]'s index. A
   Deadlock admits nothing, so it leaves no entry behind. *)
let admit t txn r e =
  if not (List.mem_assoc txn e.holders || List.mem_assoc txn e.queue) then begin
    if e.holders = [] && e.queue = [] then Hashtbl.replace t.table r e;
    Hashtbl.replace t.touched txn (r :: touched t txn)
  end

let acquire t txn r mode =
  let e =
    match Hashtbl.find_opt t.table r with
    | Some e -> e
    | None -> { holders = []; queue = [] }
  in
  match List.assoc_opt txn e.holders with
  | Some held when held = mode || (held = Exclusive && mode = Shared) -> Granted
  | held ->
    let want = match held with Some Shared -> Exclusive | _ -> mode in
    let conflicts = conflicting_holders e txn want in
    let queued_ahead =
      List.filter_map (fun (w, _) -> if w = txn then None else Some w) e.queue
    in
    if conflicts = [] && queued_ahead = [] then begin
      admit t txn r e;
      grant e txn want;
      Granted
    end
    else begin
      (* Fair queuing: wait on conflicting holders AND everything already
         queued — an upgrade must not jump an earlier Exclusive request.
         Both edge sets feed cycle detection, so a sole Shared holder
         upgrading behind a queued X (which waits on that very Shared
         hold), or two Shared holders both upgrading, is a Deadlock
         reported immediately rather than a silent mutual wait. *)
      let blockers = conflicts @ queued_ahead in
      match find_cycle t txn blockers with
      | Some cycle -> Deadlock cycle
      | None ->
        admit t txn r e;
        e.queue <- e.queue @ [ (txn, want) ];
        Hashtbl.replace t.waits_for txn
          (blockers @ Option.value (Hashtbl.find_opt t.waits_for txn) ~default:[]);
        Blocked blockers
    end

(* Promote [r]'s queued requests that are now compatible, in arrival order,
   then drop the entry if nothing holds or awaits it any more. *)
let settle t r e =
  let rec promote () =
    match e.queue with
    | (w, wm) :: rest when conflicting_holders e w wm = [] ->
      e.queue <- rest;
      grant e w wm;
      Hashtbl.remove t.waits_for w;
      t.last_granted <- (w, r, wm) :: t.last_granted;
      promote ()
    | _ -> ()
  in
  promote ();
  if e.holders = [] && e.queue = [] then Hashtbl.remove t.table r

let release_all t txn =
  Hashtbl.remove t.waits_for txn;
  t.last_granted <- [];
  let rs = touched t txn in
  Hashtbl.remove t.touched txn;
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.table r with
      | None -> ()
      | Some e ->
        e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
        e.queue <- List.filter (fun (w, _) -> w <> txn) e.queue;
        settle t r e)
    (List.rev rs)

let holds t txn r mode =
  match Hashtbl.find_opt t.table r with
  | None -> false
  | Some e ->
    (match List.assoc_opt txn e.holders with
     | Some Exclusive -> true
     | Some Shared -> mode = Shared
     | None -> false)

let holders t r =
  match Hashtbl.find_opt t.table r with None -> [] | Some e -> e.holders

let waiting t r =
  match Hashtbl.find_opt t.table r with None -> [] | Some e -> e.queue

let granted_since t _txn = t.last_granted

let length t = Hashtbl.length t.table
