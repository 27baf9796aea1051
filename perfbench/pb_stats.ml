(* Order statistics for the benchmark's reports. *)

(* Nearest-rank percentile [p] in (0, 1) of [samples]. A percentile is
   reported only when at least ten samples lie beyond it (p90 needs 100):
   fewer, and the figure is one or two outliers, not a tail. *)
let percentile p (samples : float array) =
  let n = Array.length samples in
  if p <= 0. || p >= 1. then invalid_arg "percentile: p must be in (0, 1)";
  if float_of_int n *. (1. -. p) < 10. -. 1e-9 then
    invalid_arg
      (Printf.sprintf "percentile: p%g needs %d samples, got %d" (p *. 100.)
         (int_of_float (Float.ceil (10. /. (1. -. p) -. 1e-9)))
         n);
  let a = Array.copy samples in
  Array.sort compare a;
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type windowed = {
  ops_per_s : float;
  p50 : float;
  p90 : float;
  windows : int;      (* throughput windows *)
  lat_windows : int;  (* latency windows *)
}

(* Completion-time bins: [windows] equal spans of [fin]'s range, each
   holding the latencies of the ops that completed in it. *)
let bins ~windows ~(fin : float array) ~(lat : float array) =
  let t0 = Array.fold_left Float.min infinity fin in
  let t1 = Array.fold_left Float.max neg_infinity fin in
  let span = (t1 -. t0) /. float_of_int windows in
  let b = Array.make windows [] in
  Array.iteri
    (fun i t ->
      let k = min (windows - 1) (int_of_float ((t -. t0) /. span)) in
      b.(k) <- lat.(i) :: b.(k))
    fin;
  (b, span)

(* Split a run into equal spans of time and report the median over spans
   of each span's throughput, p50 and p90 latency (an op belongs to the
   span it completed in). A burst of host slowness or speed lasting a
   fraction of the run then moves a few spans, not the reported figures.
   Throughput uses up to 20 spans of >= 10 ops on average; latency uses
   spans of >= 200 ops on average, and leaves out any span with fewer than
   100, whose p90 would not stand on ten samples. [fin] are completion
   times (us), [lat] the matching latencies (us). *)
let windowed ~(fin : float array) ~(lat : float array) () =
  let n = Array.length fin in
  let windows = max 1 (min 20 (n / 10)) in
  let lat_windows = max 1 (min 20 (n / 200)) in
  let rb, span = bins ~windows ~fin ~lat in
  let rates = Array.map (fun l -> float_of_int (List.length l) /. (span /. 1e6)) rb in
  let lb, _ = bins ~windows:lat_windows ~fin ~lat in
  let full = List.filter (fun l -> List.length l >= 100) (Array.to_list lb) in
  if full = [] then invalid_arg "windowed: latency needs a window of >= 100 ops";
  let lat_median p =
    median (Array.of_list (List.map (fun l -> percentile p (Array.of_list l)) full))
  in
  { ops_per_s = median rates; p50 = lat_median 0.5; p90 = lat_median 0.9; windows;
    lat_windows }
