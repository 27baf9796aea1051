(** RSS scans — the tuple-at-a-time access paths (RSI: OPEN, NEXT).

    Two kinds exist, matching the paper:
    - a {b segment scan} touches every non-empty page of the segment (each
      exactly once) and returns tuples of the requested relation;
    - an {b index scan} walks a B-tree key range, fetching data tuples by TID
      in key order; a data page may be re-fetched when consecutive index
      entries are not physically close (the non-clustered penalty).

    Both accept SARGs applied before a tuple is returned; every returned
    tuple counts one RSI call.

    OPENing a scan returns its NEXT: each call yields the next qualifying
    tuple, and every call after the end yields [None]. As in the paper, NEXT
    returns the tuple; its TID is only its address, written into the [tid]
    cell when the opener passes one (the DML victim search, snapshots).
    There is no CLOSE: a scan here pins no page and holds no lock (a page
    fetch is charged when the scan enters the page), so a consumer that stops
    early simply drops the function. *)

type t = unit -> Rel.Tuple.t option

val open_segment_scan :
  Segment.t ->
  rel_id:int ->
  ?snap:Mvcc.view ->
  ?sargs:Sarg.t ->
  ?tid:Tid.t ref ->
  unit ->
  t
(** [snap] applies MVCC snapshot visibility;
    without it, versions that are not delete-marked qualify (pre-MVCC
    default). *)

val open_index_scan :
  Segment.t ->
  rel_id:int ->
  index:Btree.t ->
  ?lo:Btree.bound ->
  ?hi:Btree.bound ->
  ?dir:[ `Asc | `Desc ] ->
  ?snap:Mvcc.view ->
  ?sargs:Sarg.t ->
  ?tid:Tid.t ref ->
  unit ->
  t
(** [dir] (default [`Asc]) selects forward or backward leaf-chain traversal:
    tuples come back in ascending or descending key order. *)
