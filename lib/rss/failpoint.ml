exception Crash of string

type mode =
  | Off
  | Count
  | Armed of { site : string; at : int }

let mode = ref Off
let halted_flag = ref false

(* The registry is global mutable state with no synchronization: it is
   single-domain-only by contract. Arming asserts it runs on the main domain,
   and every plan runs serially on the domain that opened it, so other
   domains (server connection workers) only ever observe [live = false] — a
   benign read of an immutable-in-practice flag. *)
let main_domain = Domain.self ()

let assert_main_domain what =
  if Domain.self () <> main_domain then
    invalid_arg (what ^ ": single-domain-only; must run on the main domain")

(* Fast-path gate kept in sync with (mode, halted): [hit] in production code
   must cost one load and one branch. *)
let live = ref false

let table : (string, int ref) Hashtbl.t = Hashtbl.create 16

let refresh () =
  live := (match !mode with Off -> false | _ -> not !halted_flag)

let reset () =
  mode := Off;
  halted_flag := false;
  Hashtbl.reset table;
  refresh ()

let count_only () =
  assert_main_domain "Failpoint.count_only";
  Hashtbl.reset table;
  mode := Count;
  halted_flag := false;
  refresh ()

let arm ~site ~at =
  assert_main_domain "Failpoint.arm";
  if at < 1 then invalid_arg "Failpoint.arm: at < 1";
  Hashtbl.reset table;
  mode := Armed { site; at };
  halted_flag := false;
  refresh ()

let disarm () =
  mode := Off;
  refresh ()

let halted () = !halted_flag

let crash site =
  halted_flag := true;
  refresh ();
  raise (Crash site)

let counter site =
  match Hashtbl.find_opt table site with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.replace table site c;
    c

let slow_hit site =
  let c = counter site in
  incr c;
  match !mode with
  | Off | Count -> ()
  | Armed { site = s; at } -> if String.equal s site && !c = at then crash site

let hit site = if !live then slow_hit site

let hits site = match Hashtbl.find_opt table site with Some c -> !c | None -> 0

let counts () =
  Hashtbl.fold (fun site c acc -> (site, !c) :: acc) table []
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
