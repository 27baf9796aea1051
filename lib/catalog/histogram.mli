(** Equi-depth histogram plus distinct count and NULL fraction for one column.

    Built by UPDATE STATISTICS from a full scan of the column's values;
    consulted by the optimizer's selectivity estimation in place of TABLE 1's
    value-independent constants. All comparison estimators are fractions of
    the total row count (NULLs included), so the NULL discount is built in,
    and all derive from one pair of cumulative counts, which makes equality,
    open-range and BETWEEN estimates mutually consistent and monotone in the
    probe value. *)

type bucket = {
  b_lo : Rel.Value.t;
  b_hi : Rel.Value.t;
  b_rows : int;
  b_distinct : int;
}

type t = {
  rows : int;
  nulls : int;
  distinct : int;
  buckets : bucket array;
}

val build : ?max_buckets:int -> Rel.Value.t array -> t
(** Sort the column's values {e in place} ([Array.stable_sort]) and
    partition the non-NULL ones into runs of roughly equal row count.
    [max_buckets] (default 32) is a target: the actual count can be lower —
    a boundary never splits one value's run across buckets. *)

val rows : t -> int
val distinct : t -> int
(** Distinct non-NULL values; 0 for a never-loaded or all-NULL column. *)

val null_fraction : t -> float

val selectivity_eq : t -> Rel.Value.t -> float
(** Per-value depth of the containing bucket (rows/distinct, as a fraction of
    all rows); 0 for values outside every bucket and for NULL probes. *)

val selectivity_cmp : t -> [ `Lt | `Le | `Gt | `Ge ] -> Rel.Value.t -> float
(** Full buckets below/above the probe plus linear interpolation inside the
    containing bucket (mid-bucket for non-numeric values). *)

val selectivity_between : t -> Rel.Value.t -> Rel.Value.t -> float
