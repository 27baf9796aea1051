(* Seeded inputs of the served benchmark: the seed dataset (as a SQL script
   plus an in-memory model of the same rows), the request stream of every
   workload, and the correctness oracle. Every expected answer is computed
   here, from the model, never by the engine.

   Determinism: everything is a pure function of (sizes, seed). Each stream
   draws from its own Random.State, so adding a draw to one stream never
   shifts another. *)

module V = Rel.Value
module P = Protocol

type sizes = {
  n_emp : int;      (* EMP rows, ENO 0 .. n_emp-1, clustered on ENO *)
  n_dept : int;
  n_job : int;
  n_loc : int;
  n_cust : int;
  n_prod : int;
  n_ord : int;      (* LINE gets 1-5 rows per order *)
  n_acct : int;     (* ACCT rows, split into one key range per writer *)
  n_hist : int;
  hot_keys : int;   (* point_read literals: EMP keys [0, hot_keys) *)
  buffer_pages : int;
}

(* ~1040 heap pages against a 256-page pool: data is over 4x the pool, the
   point_read hot set (4000 EMP rows, ~60 pages) is under a quarter of it. *)
let full =
  { n_emp = 24_000; n_dept = 100; n_job = 20; n_loc = 10; n_cust = 2_000;
    n_prod = 500; n_ord = 15_000; n_acct = 2_000; n_hist = 2_000;
    hot_keys = 4_000; buffer_pages = 256 }

let tiny =
  { n_emp = 600; n_dept = 10; n_job = 5; n_loc = 3; n_cust = 50; n_prod = 20;
    n_ord = 200; n_acct = 40; n_hist = 40; hot_keys = 100; buffer_pages = 32 }

let rng seed tag = Random.State.make [| seed; tag |]

(* --- the model ------------------------------------------------------------ *)

type data = {
  sizes : sizes;
  emp_dno : int array;
  emp_job : int array;
  emp_sal : int array;
  dept_loc : int array;
  cust_region : int array;
  prod_cat : int array;
  ord_cno : int array;
  ord_date : int array;
  line : (int * int * int * int) array;  (* ONO, PNO, QTY, AMT; ONO order *)
  acct_bal : int array;
  hist : (int * int * int) array;        (* HID, AID, AMT *)
}

let emp_name i = Printf.sprintf "E%05d" i
let dname d = Printf.sprintf "D%03d" d
let loc_name l = Printf.sprintf "L%d" l
let title j = Printf.sprintf "T%02d" j
let region r = Printf.sprintf "R%d" r
let cat c = Printf.sprintf "C%02d" c

let n_days = 1000
let sal_lo = 10_000
let sal_span = 90_000

let dataset ?(sizes = full) seed =
  let r = rng seed 1 in
  let int n = Random.State.int r n in
  let emp_dno = Array.init sizes.n_emp (fun _ -> int sizes.n_dept) in
  let emp_job = Array.init sizes.n_emp (fun _ -> int sizes.n_job) in
  let emp_sal = Array.init sizes.n_emp (fun _ -> sal_lo + int sal_span) in
  (* every location holds the same number of departments, so the Figure 1
     join's estimate (and hence the plan cached for it) is the same for
     every literal and every seed *)
  let dept_loc = Array.init sizes.n_dept (fun d -> d mod sizes.n_loc) in
  let cust_region = Array.init sizes.n_cust (fun _ -> int 8) in
  let prod_cat = Array.init sizes.n_prod (fun _ -> int 12) in
  let ord_cno = Array.init sizes.n_ord (fun _ -> int sizes.n_cust) in
  let ord_date = Array.init sizes.n_ord (fun _ -> int n_days) in
  let line =
    Array.concat
      (List.init sizes.n_ord (fun o ->
           Array.init (1 + int 5) (fun _ ->
               let q = 1 + int 10 in
               (o, int sizes.n_prod, q, q * (1 + int 100)))))
  in
  let acct_bal = Array.init sizes.n_acct (fun _ -> 1_000 + int 1_000) in
  let hist = Array.init sizes.n_hist (fun h -> (h, int sizes.n_acct, int 100)) in
  { sizes; emp_dno; emp_job; emp_sal; dept_loc; cust_region; prod_cat; ord_cno;
    ord_date; line; acct_bal; hist }

(* The seed script: DDL, multi-row INSERTs in key order (so clustered
   indexes are clustered), secondary indexes, UPDATE STATISTICS. *)
let seed_script d =
  let b = Buffer.create (4 * 1024 * 1024) in
  let add = Buffer.add_string b in
  let rows table n row =
    let rec chunk lo =
      if lo < n then begin
        let hi = min (lo + 200) n in
        add "INSERT INTO ";
        add table;
        add " VALUES ";
        for i = lo to hi - 1 do
          if i > lo then add ", ";
          add "(";
          add (row i);
          add ")"
        done;
        add ";\n";
        chunk hi
      end
    in
    chunk 0
  in
  add "CREATE TABLE EMP (ENO INT, NAME STRING, DNO INT, JOB INT, SAL INT);\n";
  add "CREATE TABLE DEPT (DNO INT, DNAME STRING, LOC STRING);\n";
  add "CREATE TABLE JOB (JOB INT, TITLE STRING);\n";
  add "CREATE TABLE CUST (CNO INT, REGION STRING, SEG INT);\n";
  add "CREATE TABLE PROD (PNO INT, CAT STRING, PRICE INT);\n";
  add "CREATE TABLE ORD (ONO INT, CNO INT, ODATE INT);\n";
  add "CREATE TABLE LINE (ONO INT, PNO INT, QTY INT, AMT INT);\n";
  add "CREATE TABLE ACCT (AID INT, BAL INT, OWNER INT);\n";
  add "CREATE TABLE HIST (HID INT, AID INT, AMT INT);\n";
  let s = d.sizes in
  rows "EMP" s.n_emp (fun i ->
      Printf.sprintf "%d, '%s', %d, %d, %d" i (emp_name i) d.emp_dno.(i)
        d.emp_job.(i) d.emp_sal.(i));
  rows "DEPT" s.n_dept (fun i ->
      Printf.sprintf "%d, '%s', '%s'" i (dname i) (loc_name d.dept_loc.(i)));
  rows "JOB" s.n_job (fun i -> Printf.sprintf "%d, '%s'" i (title i));
  rows "CUST" s.n_cust (fun i ->
      Printf.sprintf "%d, '%s', %d" i (region d.cust_region.(i)) (i mod 5));
  rows "PROD" s.n_prod (fun i ->
      Printf.sprintf "%d, '%s', %d" i (cat d.prod_cat.(i)) (10 + (i mod 90)));
  rows "ORD" s.n_ord (fun i ->
      Printf.sprintf "%d, %d, %d" i d.ord_cno.(i) d.ord_date.(i));
  rows "LINE" (Array.length d.line) (fun i ->
      let o, p, q, a = d.line.(i) in
      Printf.sprintf "%d, %d, %d, %d" o p q a);
  rows "ACCT" s.n_acct (fun i -> Printf.sprintf "%d, %d, %d" i d.acct_bal.(i) (i mod 7));
  rows "HIST" s.n_hist (fun i ->
      let h, a, m = d.hist.(i) in
      Printf.sprintf "%d, %d, %d" h a m);
  List.iter add
    [ "CREATE CLUSTERED INDEX EMP_ENO ON EMP (ENO);\n";
      "CREATE INDEX EMP_DNO ON EMP (DNO);\n";
      "CREATE INDEX EMP_JOB ON EMP (JOB);\n";
      "CREATE INDEX EMP_SAL ON EMP (SAL);\n";
      "CREATE CLUSTERED INDEX DEPT_DNO ON DEPT (DNO);\n";
      "CREATE CLUSTERED INDEX JOB_JOB ON JOB (JOB);\n";
      "CREATE CLUSTERED INDEX CUST_CNO ON CUST (CNO);\n";
      "CREATE CLUSTERED INDEX PROD_PNO ON PROD (PNO);\n";
      "CREATE CLUSTERED INDEX ORD_ONO ON ORD (ONO);\n";
      "CREATE INDEX ORD_CNO ON ORD (CNO);\n";
      "CREATE CLUSTERED INDEX LINE_ONO ON LINE (ONO);\n";
      "CREATE INDEX LINE_PNO ON LINE (PNO);\n";
      "CREATE CLUSTERED INDEX ACCT_AID ON ACCT (AID);\n";
      "CREATE CLUSTERED INDEX HIST_HID ON HIST (HID);\n";
      "UPDATE STATISTICS;\n" ];
  Buffer.contents b

(* --- checksums ------------------------------------------------------------ *)

(* Order-independent multiset checksum of a result: the sum of per-row
   hashes. Model rows and wire rows hash identically because both are
   Rel.Value lists rendered the same way. *)
let row_hash (row : V.t list) =
  Hashtbl.hash (String.concat "\x1f" (List.map V.to_string row))

type sum = { count : int; sum : int }

let empty_sum = { count = 0; sum = 0 }
let add_row s row = { count = s.count + 1; sum = (s.sum + row_hash row) land max_int }

let sum_rows rows = List.fold_left add_row empty_sum rows

let sum_tuples tuples =
  List.fold_left
    (fun s t -> add_row s (List.init (Rel.Tuple.arity t) (Rel.Tuple.get t)))
    empty_sum tuples

(* --- requests ------------------------------------------------------------- *)

type expect =
  | Rows of sum                  (* row count and multiset checksum *)
  | Tag of string                (* command tag prefix, no rows *)

(* One step: the messages of one statement (a portal read is its Execute
   plus every Fetch), answered by one Ready-terminated reply each. *)
type step = { msgs : P.client_msg list; expect : expect }

(* One operation: the unit that latency and ops/s count. *)
type op = step list

let simple sql expect = { msgs = [ P.Simple sql ]; expect }
let rows_of rows = Rows (sum_rows rows)

(* point_read: a Simple-text indexed point SELECT *)
let point_sql k = Printf.sprintf "SELECT NAME, SAL FROM EMP WHERE ENO = %d" k

let point_op d k =
  [ simple (point_sql k) (rows_of [ [ V.Str (emp_name k); V.Int d.emp_sal.(k) ] ]) ]

let point_warmup d = List.init d.sizes.hot_keys (point_op d)

let point_keys d ~seed ~ops =
  let r = rng seed 2 in
  Array.init ops (fun _ -> Random.State.int r d.sizes.hot_keys)

(* analytic: one op is one full report, the rotation of four templates *)
let portal_fetch = 500
let portal_stmt = "big"
let portal_sql = "SELECT ONO, PNO, QTY, AMT FROM LINE WHERE ONO BETWEEN ? AND ?"

let fig1 d r =
  let t = Random.State.int r d.sizes.n_job and l = Random.State.int r d.sizes.n_loc in
  let rows = ref [] in
  for e = d.sizes.n_emp - 1 downto 0 do
    if d.emp_job.(e) = t && d.dept_loc.(d.emp_dno.(e)) = l then
      rows := [ V.Str (emp_name e); V.Str (title t); V.Int d.emp_sal.(e);
                V.Str (dname d.emp_dno.(e)) ] :: !rows
  done;
  simple
    (Printf.sprintf
       "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB WHERE TITLE = '%s' \
        AND LOC = '%s' AND EMP.DNO = DEPT.DNO AND EMP.JOB = JOB.JOB ORDER BY SAL"
       (title t) (loc_name l))
    (rows_of !rows)

let sales_window = 40

let sales d r =
  let lo = Random.State.int r (n_days - sales_window) in
  let hi = lo + sales_window - 1 in
  let groups = Hashtbl.create 128 in
  Array.iter
    (fun (o, p, _, a) ->
      let dt = d.ord_date.(o) in
      if dt >= lo && dt <= hi then begin
        let key = (d.cust_region.(d.ord_cno.(o)), d.prod_cat.(p)) in
        let n, s = Option.value (Hashtbl.find_opt groups key) ~default:(0, 0) in
        Hashtbl.replace groups key (n + 1, s + a)
      end)
    d.line;
  let rows =
    Hashtbl.fold
      (fun (rg, c) (n, s) acc -> [ V.Str (region rg); V.Str (cat c); V.Int n; V.Int s ] :: acc)
      groups []
  in
  simple
    (Printf.sprintf
       "SELECT REGION, CAT, COUNT(*), SUM(AMT) FROM CUST, ORD, LINE, PROD WHERE \
        CUST.CNO = ORD.CNO AND ORD.ONO = LINE.ONO AND LINE.PNO = PROD.PNO AND \
        ODATE BETWEEN %d AND %d GROUP BY REGION, CAT ORDER BY REGION, CAT"
       lo hi)
    (rows_of rows)

(* Selectivity sweeps 0.1% .. 5% of EMP in 16 geometric steps: across the
   crossover between the SAL index and a segment scan. *)
let range_step i = 0.001 *. (50. ** (float_of_int (i mod 16) /. 15.))

let range d r i =
  let width = max 1 (int_of_float (range_step i *. float_of_int sal_span)) in
  let lo = sal_lo + Random.State.int r (sal_span - width) in
  let hi = lo + width in
  let rows = ref [] in
  Array.iteri
    (fun e s -> if s >= lo && s <= hi then rows := [ V.Int e; V.Int s ] :: !rows)
    d.emp_sal;
  simple
    (Printf.sprintf "SELECT ENO, SAL FROM EMP WHERE SAL BETWEEN %d AND %d" lo hi)
    (rows_of !rows)

let portal_orders = 500

let portal d r =
  let lo = Random.State.int r (max 1 (d.sizes.n_ord - portal_orders)) in
  let hi = lo + portal_orders - 1 in
  let rows =
    Array.fold_left
      (fun acc (o, p, q, a) ->
        if o >= lo && o <= hi then [ V.Int o; V.Int p; V.Int q; V.Int a ] :: acc
        else acc)
      [] d.line
  in
  let n = List.length rows in
  let fetches = if n <= portal_fetch then 0 else (n - 1) / portal_fetch in
  { msgs =
      P.Execute { name = portal_stmt; params = Some [ V.Int lo; V.Int hi ];
                  fetch = portal_fetch }
      :: List.init fetches (fun _ -> P.Fetch portal_fetch);
    expect = rows_of rows }

let analytic_stream d ~seed ~tag ~ops =
  let r = rng seed tag in
  List.init ops (fun i -> [ fig1 d r; sales d r; range d r i; portal d r ])

(* write_txn: the transaction. Each writer [w] owns ACCT keys
   [lo, lo + n) and deletes HIST rows it owns: first its share of the
   seeded rows, then (once those run out) the rows it inserted itself, so
   HIST keeps its size and every DELETE hits exactly one row. *)
type writer = {
  w_id : int;
  key_lo : int;
  key_n : int;
  hist_seed : int array;      (* seeded HIDs this writer deletes, in order *)
  mutable next : int;         (* transactions generated so far *)
}

let writers d ~count =
  let s = d.sizes in
  List.init count (fun w ->
      let key_n = s.n_acct / count in
      let share = s.n_hist / count in
      { w_id = w; key_lo = w * key_n; key_n;
        hist_seed = Array.init share (fun i -> (w * share) + i); next = 0 })

let new_hid w i = (1_000_000 * (w.w_id + 1)) + i

(* [bal] is the model's ACCT balance array, advanced as transactions are
   generated: the stream and the oracle are one pass. [hist] is the model's
   HIST table (HID -> AMT). *)
let txn w r ~bal ~hist =
  let i = w.next in
  w.next <- i + 1;
  let k = w.key_lo + Random.State.int r w.key_n in
  let delta = 1 + Random.State.int r 100 in
  let before = bal.(k) in
  bal.(k) <- before + delta;
  let share = Array.length w.hist_seed in
  let victim = if i < share then w.hist_seed.(i) else new_hid w (i - share) in
  Hashtbl.replace hist (new_hid w i) delta;
  Hashtbl.remove hist victim;
  [ simple "BEGIN" (Tag "transaction");
    simple (Printf.sprintf "SELECT BAL FROM ACCT WHERE AID = %d" k)
      (rows_of [ [ V.Int before ] ]);
    simple (Printf.sprintf "UPDATE ACCT SET BAL = BAL + %d WHERE AID = %d" delta k)
      (Tag "1 row updated");
    simple (Printf.sprintf "INSERT INTO HIST VALUES (%d, %d, %d)" (new_hid w i) k delta)
      (Tag "1 row inserted");
    simple (Printf.sprintf "DELETE FROM HIST WHERE HID = %d" victim) (Tag "1 row deleted");
    simple "COMMIT" (Tag "transaction") ]

(* Streams for [count] writers: warm-up and measured transactions per
   writer, plus the end-state oracle. *)
type txn_plan = {
  warm : op list array;
  meas : op list array;
  acct_sum : int;
  hist : (int, int) Hashtbl.t;      (* HID -> AMT at end of run *)
}

let txn_plan d ~seed ~count ~warm ~meas =
  let bal = Array.copy d.acct_bal in
  let hist = Hashtbl.create (d.sizes.n_hist * 2) in
  Array.iter (fun (h, _, a) -> Hashtbl.replace hist h a) d.hist;
  let ws = writers d ~count in
  let gen tag n =
    Array.of_list
      (List.map
         (fun w ->
           let r = rng seed (100 + (10 * w.w_id) + tag) in
           List.init n (fun _ -> txn w r ~bal ~hist))
         ws)
  in
  let warm = gen 0 warm in
  let meas = gen 1 meas in
  { warm; meas; acct_sum = Array.fold_left ( + ) 0 bal; hist }

(* Byte image of a stream — what the determinism test compares. *)
let stream_bytes (ops : op list) =
  let b = Buffer.create 4096 in
  List.iter
    (List.iter (fun st ->
         List.iter
           (fun m ->
             let c, payload = P.encode_client m in
             Buffer.add_char b c;
             Buffer.add_string b payload)
           st.msgs))
    ops;
  Buffer.contents b
