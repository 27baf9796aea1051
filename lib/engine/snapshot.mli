(** Whole-database snapshots: a checkpoint image of the committed state.

    An image is three parts, each written by code the engine already uses:
    - a header line, [systemr-snapshot 2 <d> <l>], giving the byte lengths
      of the next two parts;
    - the catalog as SQL: [CREATE TABLE] and [CREATE [CLUSTERED] INDEX]
      statements written by {!Ast.to_sql}, relations in rel_id order;
    - the rows as one committed WAL transaction, [Begin; Insert...; Commit],
      written by {!Rss.Wal.encode}, each relation's rows in heap order. An
      Insert names its relation by its position in the DDL.

    Loading an image is crash recovery: the DDL runs on a fresh database,
    {!Database.recover} replays the log, which re-logs the rows as the new
    database's checkpoint, and UPDATE STATISTICS collects statistics again,
    so a loaded database is immediately optimizable. *)

val save : Database.t -> string
(** The rows visible to one statement snapshot, taken under the engine's
    shared latch: the committed state. Uncommitted versions of any session
    are left out, so a save needs no quiet moment and refuses nothing. *)

val load : ?buffer_pages:int -> ?w:float -> string -> Database.t
(** @raise Invalid_argument when the input is not an image exactly: a bad
    header; a length that does not account for every byte (truncation or
    trailing bytes); DDL that does not parse or holds anything but CREATE
    TABLE and CREATE INDEX, or that fails to run; a log that does not decode
    byte for byte to one Begin/Insert.../Commit transaction; or an Insert
    that recovery does not restore. *)

val save_to_file : Database.t -> string -> unit
val load_from_file : ?buffer_pages:int -> ?w:float -> string -> Database.t
