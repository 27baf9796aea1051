(* Spans for the traced replay: name, request id, parent, start, end — kept
   in memory and written out when the run ends. Self time (a span's
   duration minus the time its direct children cover) is folded per name as
   spans close, so the per-layer totals cover every span even though only
   the first [keep] spans are retained for the trace file. Single-threaded:
   the replay runs every session on one thread. When [on] is false, [span]
   is a plain call. *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (* -1 at the root *)
  start_us : float;
  dur_us : float;
}

let on = ref false
let keep = 20_000
let kept : span list ref = ref []
let n_spans = ref 0
let req = ref 0
let self_us : (string, float) Hashtbl.t = Hashtbl.create 16

(* open spans: (id, accumulated child time) *)
let stack : (int * float ref) list ref = ref []

let reset () =
  kept := [];
  n_spans := 0;
  req := 0;
  stack := [];
  Hashtbl.reset self_us

let span name f =
  if not !on then f ()
  else begin
    let id = !n_spans in
    incr n_spans;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0. in
    stack := (id, children) :: !stack;
    let t0 = now_us () in
    let finish () =
      let dur = now_us () -. t0 in
      stack := List.tl !stack;
      (match !stack with (_, acc) :: _ -> acc := !acc +. dur | [] -> ());
      let prev = Option.value (Hashtbl.find_opt self_us name) ~default:0. in
      Hashtbl.replace self_us name (prev +. dur -. !children);
      if id < keep then
        kept := { id; name; req = !req; parent; start_us = t0; dur_us = dur } :: !kept
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let self name = Option.value (Hashtbl.find_opt self_us name) ~default:0.

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"req\": %d, \"parent\": %d, \"start_us\": %.3f, \"dur_us\": %.3f}\n"
        s.id s.name s.req s.parent s.start_us s.dur_us)
    (List.rev !kept);
  close_out oc
