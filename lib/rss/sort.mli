(** External merge sort into a temporary list.

    C-sort(path) in the paper covers: retrieving the data via the chosen
    access path, sorting (possibly several passes), and writing the result
    into a temporary list. The retrieval cost is charged by whatever scan
    feeds the sort; this module charges the run writes and the merge-pass
    reads and writes through the pager counters. The final merge streams
    to its consumer instead of writing an output list ({!sort_stream}).

    The implementation is streaming and allocation-lean: runs form in tuple
    arrays sized by the bytes budget and are [Array.stable_sort]ed in place,
    merging goes through a tournament loser tree of run cursors (log2 k
    comparisons, zero allocation per element), and spill behaviour — runs
    written, merge levels performed — is recorded in {!Counters.t} as
    [sort_runs] / [merge_passes] so observed TEMPPAGES traffic sits next to
    the cost model's {!passes} prediction.

    After a sort on the join column the output is clustered on it — one page
    access retrieves several matching tuples — which is exactly why the merge
    join's inner-scan formula (TEMPPAGES/N per opening) beats re-scanning. *)

type direction = Asc | Desc

type key = (int * direction) list
(** Column positions with per-column direction. *)

val compare_tuples : key -> Rel.Tuple.t -> Rel.Tuple.t -> int

val sort_stream :
  ?run_pages:int ->
  ?fan_in:int ->
  ?cmp:(Rel.Tuple.t -> Rel.Tuple.t -> int) ->
  Pager.t ->
  key:key ->
  (unit -> Rel.Tuple.t option) ->
  unit ->
  Rel.Tuple.t option
(** Sort a tuple dispenser (the executor feeds its plan cursor directly — no
    intermediate [Seq] cell per input tuple) and return a dispenser of the
    sorted tuples. [run_pages] is the in-memory run size in pages (default:
    the pager's buffer size); [fan_in] the merge width (default: buffer size
    - 1). The sort is stable. [cmp] overrides the comparator (default:
    [compare_tuples key]) — the executor passes a position-resolved compiled
    comparator so the per-comparison path does no key-list interpretation;
    it must order exactly as [key] or the clustering contract breaks.

    Runs are written to temp pages, and merge passes run while more than
    [fan_in] runs survive; the final merge happens on the fly, feeding the
    returned dispenser directly, so the sorted result is never written to
    temp pages — ORDER BY and the merge join's inputs consume sorted tuples
    one at a time, so the final TEMPPAGES write of a classic external sort
    would be pure overhead. The streamed final merge still counts one
    [merge_passes] level, keeping observed passes aligned with {!passes}. *)

val passes :
  ?run_pages:int ->
  ?fan_in:int ->
  buffer_pages:int ->
  tuples:int ->
  tuples_per_page:float ->
  unit ->
  int
(** Predicted number of merge passes for the cost model. The observed
    counterpart of a spilling sort is [1 + merge_passes] (run formation plus
    each merge level) in {!Counters.t}. *)
