(** B-tree indexes (B+-tree variant, as in Bayer-McCreight ref <3>).

    An index maps composite keys — one or more column values — to the TIDs of
    the tuples containing them. Leaf pages hold (key, TID) sets and are
    chained so a sequential scan of a key range never revisits upper levels.
    Index pages live in the same pager/buffer pool as data pages; a range
    walk charges one buffered access per leaf page it enters (upper levels
    are taken as buffer-resident), which is what TABLE 2's NINDX terms
    predict.

    Deletion is lazy (entries are removed but underfull nodes are not merged),
    the strategy production B-trees such as PostgreSQL's use; NINDX can
    therefore only be reduced by rebuilding, which UPDATE STATISTICS notes. *)

type key = Rel.Value.t array

type t

val create : ?order:int -> Pager.t -> t
(** [order] is the maximum number of entries per node (default 128, a 4K
    page of ~32-byte entries). @raise Invalid_argument when [order < 4]. *)

val set_order_override : int option -> unit
(** Debug hook for the crash-torture harness: force every subsequently
    created tree to the given order, so tiny test relations exercise the
    split paths (and their ["btree.split"] failpoint). Never set in normal
    operation; reset with [None]. Single-domain-only: asserts it runs on the
    main domain ({!Failpoint.assert_main_domain}). *)

val pager : t -> Pager.t
val compare_key : key -> key -> int

val insert : t -> key -> Tid.t -> unit
val delete : t -> key -> Tid.t -> bool
(** Remove one (key, TID) entry; [false] when absent. *)

type bound = Rel.Value.t array * [ `Inclusive | `Exclusive ]

val range_cursor : ?lo:bound -> ?hi:bound -> t -> unit -> (key * Tid.t) option
(** The index range walk: a one-shot dispenser of the entries with
    [lo <= key <= hi] in key order, charging buffered accesses as described
    above. Bounds may be prefixes of the full key. The executor's index
    scans pull every entry through this. *)

val range_cursor_desc : ?lo:bound -> ?hi:bound -> t -> unit -> (key * Tid.t) option
(** The same entries in {e descending} key order, walking the leaf chain
    backwards (leaves are doubly linked); same accounting. *)

val entries : t -> (key * Tid.t) list
(** Every entry in key order, without accounting: no page is charged and
    the buffer pool is not touched. For counter-neutral whole-index passes
    (statistics, integrity checks). *)

val lookup : t -> key -> Tid.t list
(** All TIDs for an exact key (accounted). *)

val split_range :
  ?lo:bound -> ?hi:bound -> t -> parts:int ->
  (bound option * bound option) list
(** Split the range [lo, hi] into up to [parts] contiguous sub-ranges along
    existing separator keys, in key order, for parallel index scans. The
    concatenation of the sub-ranges' ascending cursors yields exactly the
    entries of the serial scan, in the same order: splits fall on full key
    values with the left range excluding and the right range including the
    split key, so duplicates never straddle a boundary. Returns a single
    range when the tree is too small to split. Planning-time only — no page
    accesses are charged. *)

val entry_count : t -> int

val distinct_keys : t -> int
(** ICARD(I): number of distinct keys in the index. *)

val leaf_pages : t -> int
(** NINDX(I): number of (leaf) pages in the index. *)

val height : t -> int
val min_key : t -> key option
val max_key : t -> key option

val check_invariants : t -> (unit, string) result
(** Structural validation used by the property tests: sortedness within and
    across leaves, separator consistency, and leaf-chain completeness. *)
