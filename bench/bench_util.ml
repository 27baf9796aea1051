(* Shared machinery for the reproduction benches: cold-cache measurement of
   plans through the pager counters, table rendering, and rank statistics. *)

let w = Ctx.default_w

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n-- %s --\n" title

(* Render a table with left-aligned first column and right-aligned rest. *)
let print_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let pad = List.nth widths c - String.length cell in
           if c = 0 then cell ^ String.make pad ' ' else String.make pad ' ' ^ cell)
         row)
  in
  Printf.printf "%s\n" (render header);
  Printf.printf "%s\n" (String.make (String.length (render header)) '-');
  List.iter (fun row -> Printf.printf "%s\n" (render row)) rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f4 x = Printf.sprintf "%.4f" x

(* Minimal JSON writer for machine-readable BENCH_*.json artifacts — enough
   for flat result records, no external dependency. *)
type json =
  | J_int of int
  | J_float of float
  | J_str of string
  | J_bool of bool
  | J_list of json list
  | J_obj of (string * json) list

let rec render_json b = function
  | J_int i -> Buffer.add_string b (string_of_int i)
  | J_float f ->
    (* JSON has no NaN/Infinity literals *)
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
    else Buffer.add_string b "null"
  | J_str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | J_bool v -> Buffer.add_string b (if v then "true" else "false")
  | J_list xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        render_json b x)
      xs;
    Buffer.add_char b ']'
  | J_obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "%S: " k);
        render_json b v)
      kvs;
    Buffer.add_char b '}'

let write_json ~file j =
  let b = Buffer.create 1024 in
  render_json b j;
  Buffer.add_char b '\n';
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "wrote %s\n" file

(* Tiny-input mode for CI smoke runs (make bench-smoke / @bench-smoke):
   benches with sizeable workloads shrink them so the whole suite stays
   fast while every code path still executes. *)
let smoke = Sys.getenv_opt "BENCH_SMOKE" <> None

(* Counting latch for cross-domain start-line handshakes: each worker
   [arrive]s, the coordinator [await]s all arrivals — condition-variable
   sleeps instead of atomic spin loops, so a stalled worker parks the waiter
   rather than burning the core it is waiting for. *)
type latch = { l_m : Mutex.t; l_c : Condition.t; mutable l_n : int }

let latch n = { l_m = Mutex.create (); l_c = Condition.create (); l_n = n }

let arrive l =
  Mutex.lock l.l_m;
  l.l_n <- l.l_n - 1;
  if l.l_n <= 0 then Condition.broadcast l.l_c;
  Mutex.unlock l.l_m

let await l =
  Mutex.lock l.l_m;
  while l.l_n > 0 do Condition.wait l.l_c l.l_m done;
  Mutex.unlock l.l_m

(* Execute a plan cold (buffer pool emptied first) and return the measured
   counters plus row count. *)
let measure_plan db block (plan : Plan.t) =
  let cat = Database.catalog db in
  let pager = Catalog.pager cat in
  Rss.Pager.evict_all pager;
  let counters = Rss.Pager.counters pager in
  let before = Rss.Counters.snapshot counters in
  let n = List.length (Cursor.drain (Cursor.compile cat block plan ())) in
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot counters) ~before in
  (d, n)

let measured_cost d = Rss.Counters.cost ~w d

(* Execute a full optimized query (subqueries included) cold. *)
let measure_query db (r : Optimizer.result) =
  let cat = Database.catalog db in
  Rss.Pager.evict_all (Catalog.pager cat);
  let out, d = Executor.run_measured cat r in
  (d, List.length out.Executor.rows)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let median_time ?(repeat = 5) f =
  let times =
    List.init repeat (fun _ ->
        let _, dt = time_once f in
        dt)
  in
  List.nth (List.sort compare times) (repeat / 2)

(* Spearman rank correlation between two float series. *)
let spearman xs ys =
  let rank vs =
    let indexed = List.mapi (fun i v -> (v, i)) vs in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) indexed in
    let ranks = Array.make (List.length vs) 0. in
    List.iteri (fun rank (_, i) -> ranks.(i) <- float_of_int rank) sorted;
    ranks
  in
  let rx = rank xs and ry = rank ys in
  let n = Array.length rx in
  if n < 2 then 1.0
  else begin
    let d2 =
      Array.to_list (Array.init n (fun i -> (rx.(i) -. ry.(i)) ** 2.))
      |> List.fold_left ( +. ) 0.
    in
    1. -. (6. *. d2 /. float_of_int (n * (n * n - 1)))
  end

(* Pairwise ordering agreement between estimates and measurements. *)
let ordering_agreement pairs =
  let rec all_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ all_pairs rest
  in
  let agree, total =
    List.fold_left
      (fun (agree, total) ((e1, m1), (e2, m2)) ->
        if abs_float (e1 -. e2) < 1e-9 || abs_float (m1 -. m2) < 1e-9 then
          (agree, total)
        else ((if (e1 < e2) = (m1 < m2) then agree + 1 else agree), total + 1))
      (0, 0) (all_pairs pairs)
  in
  (agree, total)
