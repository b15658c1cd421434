(** The flight-recorder journal ([--journal FILE]): an append-only
    JSONL stream of window snapshots, slowlog spills and lifecycle
    events, with size-based rotation.

    Layout on disk: the live generation at [FILE], at most one
    retired generation at [FILE.1] (older generations are overwritten
    by the next rotation).  Every {!record} is flushed to the OS;
    rotation and {!close} additionally [fsync], so a completed
    generation and a cleanly-terminated daemon's final records survive
    a host crash.  A torn final line (power cut mid-write) is expected
    — {!Replay.read_file} skips it and reports the skip.

    Replayed offline with [shex_validate --journal-replay FILE]
    ({!Replay}). *)

type t

val create : ?max_bytes:int -> string -> t
(** Open [path] for appending (created if missing; an existing journal
    continues — restarts extend the record rather than erasing it).
    Raises [Sys_error] when the path is not writable. *)

val rotated_path : string -> string
(** [FILE.1]. *)

val record : t -> Json.t -> unit
(** Append one minified record line and flush; rotates (with fsync)
    when the live generation reaches [max_bytes]. *)

val close : t -> unit
(** [fsync], then close the handle. *)
