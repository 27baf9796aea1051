(** Optimization context: catalog access, the W weighting factor, buffer
    size, and the ablation switches the benches exercise.

    Statistics fall back to the paper's "lack of statistics implies that the
    relation is small" defaults when a relation has never had
    UPDATE STATISTICS run. *)

type t = {
  catalog : Catalog.t;
  w : float;  (** weighting between page fetches and RSI calls (CPU) *)
  buffer_pages : int;
  use_heuristic : bool;
      (** join-order heuristic: defer Cartesian products (ablation A1) *)
  use_interesting_orders : bool;
      (** keep cheapest plan per order equivalence class (ablation A2);
          off = keep only the globally cheapest, sort at the end *)
  use_bnb : bool;
      (** branch-and-bound pruning: seed an upper bound with a greedy
          left-deep plan and never retain a partial plan whose total cost
          already exceeds it. Cost is monotone along plan extensions, so the
          chosen plan is identical with the switch on or off — only
          [plans_considered] shrinks. *)
  refined_pages : bool;
      (** extension (off by default, the paper's formulas apply): estimate
          the data pages a non-clustered matching scan touches with the
          Cardenas/Yao distinct-page formula instead of TABLE 2's
          TCARD-or-NCARD bracketing — the "more work on validation of the
          optimizer cost formulas" the paper's conclusion calls for *)
  use_histograms : bool;
      (** consult per-column equi-depth histograms (and bound parameter
          values) for selectivity; off = the paper's value-independent
          TABLE 1 constants, byte-identical to the seed behaviour
          (SET HISTOGRAMS OFF) *)
  use_feedback : bool;
      (** consult runtime cardinality-feedback corrections recorded on
          relations when estimating block output cardinality *)
  params : Rel.Value.t array;
      (** bound parameter values for [E_param] slots — the literals the
          plan-cache canonicalization extracted, "peeked" at optimization
          time for value-aware histogram estimates. Empty when optimizing
          a truly parameterized statement. *)
}

type rel_stats = {
  ncard : float;
  tcard : float;
  p : float;
}

type idx_stats = {
  icard : float;
  nindx : float;
  low : Rel.Value.t option;
  high : Rel.Value.t option;
  clustered : bool;
  unique : bool;  (** ICARD = NCARD: an equal predicate on the full key
                      selects at most one tuple *)
}

val default_w : float

val create :
  ?w:float ->
  ?buffer_pages:int ->
  ?use_heuristic:bool ->
  ?use_interesting_orders:bool ->
  ?use_bnb:bool ->
  ?refined_pages:bool ->
  ?use_histograms:bool ->
  ?use_feedback:bool ->
  ?params:Rel.Value.t array ->
  Catalog.t ->
  t

val rel_stats : t -> Catalog.relation -> rel_stats
val idx_stats : t -> Catalog.index -> idx_stats
val indexes_of : t -> Catalog.relation -> Catalog.index list

val table_rel : Semant.block -> int -> Catalog.relation
(** Relation at FROM position [tab]. *)

val column_stats : t -> Semant.block -> Semant.col_ref -> Histogram.t option
(** The column's equi-depth histogram, when UPDATE STATISTICS has collected
    one and histograms are enabled. *)

val param_value : t -> int -> Rel.Value.t option
(** The bound value of parameter slot [i], when known and histograms are
    enabled — [None] otherwise, so callers fall back to value-independent
    estimates. *)

val column_icard : t -> Semant.block -> Semant.col_ref -> float option
(** Distinct values in the column: the histogram's measured distinct count
    when available (any column, indexed or not), else the ICARD of some index
    whose leading key column is the referenced column (TABLE 1's "index on
    column"), when one with statistics exists. *)

val column_range : t -> Semant.block -> Semant.col_ref -> (float * float) option
(** (low, high) key values for interpolation, when an index provides them and
    the column is arithmetic. [low = high] (a constant-valued column) is a
    valid, degenerate range — callers decide comparisons against it outright
    rather than interpolating. *)

val tuples_per_page : t -> Catalog.relation -> float
