(* Client side of a served run: closed-loop driving over one connection,
   per-op latency, and the answer check against the oracle in Pb_gen. *)

module G = Pb_gen

type tally = {
  mutable failed : int;          (* ops with an Err reply *)
  mutable wrong : int;           (* ops whose answer disagrees with the oracle *)
  mutable rows : int;            (* rows received *)
  mutable first_problem : string option;
  mutable op_bad : bool;
}

let tally () = { failed = 0; wrong = 0; rows = 0; first_problem = None; op_bad = false }

let note t msg =
  if t.first_problem = None then t.first_problem <- Some msg

(* Sum per-connection tallies for the report. *)
let merge ts =
  let t = tally () in
  List.iter
    (fun u ->
      t.failed <- t.failed + u.failed;
      t.wrong <- t.wrong + u.wrong;
      t.rows <- t.rows + u.rows;
      if t.first_problem = None then t.first_problem <- u.first_problem)
    ts;
  t

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Check one step's replies (one per message); returns the step's
   checksum, the served run's record of what it saw. *)
let check t (st : G.step) (replies : Client.reply list) =
  match List.find_map (fun r -> r.Client.error) replies with
  | Some e ->
    note t ("error: " ^ e);
    if not t.op_bad then t.failed <- t.failed + 1;
    t.op_bad <- true;
    0
  | None ->
    let rows = List.concat_map (fun r -> r.Client.rows) replies in
    t.rows <- t.rows + List.length rows;
    let got = G.sum_tuples rows in
    let ok =
      match st.G.expect with
      | G.Rows want -> got = want
      | G.Tag prefix ->
        let last = List.nth replies (List.length replies - 1) in
        rows = [] && starts_with ~prefix last.Client.tag
    in
    if not ok then begin
      note t
        (Printf.sprintf "wrong answer to %s"
           (match st.G.msgs with
            | Protocol.Simple sql :: _ -> sql
            | _ -> "a prepared execution"));
      if not t.op_bad then t.wrong <- t.wrong + 1;
      t.op_bad <- true
    end;
    got.G.sum

(* Drive ops [lo, hi) of [op] on [c] as a closed loop: each statement is
   sent, flushed and answered (its Ready read) before the next is sent, the
   way an application issues them. An op's latency runs from sending its
   first frame to reading its last Ready; its answers are checked after
   that, outside the latency. [lat], [fin] (the completion time) and [sums]
   are indexed by op number. *)
let run c ~tally:t ~(op : int -> G.op) ~lo ~hi ~lat ~fin ~sums =
  for k = lo to hi - 1 do
    let steps = op k in
    t.op_bad <- false;
    let t0 = Pb_trace.now_us () in
    let answers =
      List.map
        (fun st ->
          List.iter (Client.send c) st.G.msgs;
          Client.flush c;
          (st, List.map (fun _ -> Client.read_reply c) st.G.msgs))
        steps
    in
    let t1 = Pb_trace.now_us () in
    let h =
      List.fold_left (fun h (st, replies) -> (h + check t st replies) land max_int) 0 answers
    in
    if k < Array.length lat then begin
      lat.(k) <- t1 -. t0;
      fin.(k) <- t1;
      sums.(k) <- h
    end
  done

(* Unmeasured driving (warm-up, end-state reads): same checks, no timing. *)
let run_plain c ~tally ops =
  let a = Array.of_list ops in
  run c ~tally ~op:(Array.get a) ~lo:0 ~hi:(Array.length a) ~lat:[||] ~fin:[||]
    ~sums:[||]
