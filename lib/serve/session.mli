(** Crash-safe session journal for [macs_serve].

    Every completed batch item and every completed frame reply is
    appended to a {!Macs_util.Journal} (one {!Macs_util.Sink} write
    boundary each), so a server killed mid-batch and restarted against
    the same session file resumes exactly where it died: items journaled
    before the crash are replayed into the new reply instead of being
    recomputed, a frame journaled complete is replayed byte-for-byte,
    and nothing completed is ever executed twice.  The journal's torn
    final line (the write the crash interrupted) is cut off by
    {!Macs_util.Journal.recover} on open, which reads the file once.

    Frames are keyed by {!frame_key} — a digest of the client id {e and}
    the raw payload bytes — so a retry with the same id but different
    payload is a fresh request, not a replay. *)

type t

val frame_key : id:string -> payload:string -> string
(** The MD5 hex digest of [id], a NUL byte and [payload]: the key of a
    frame's records in the journal, so its value must never change.
    The server pays for it on a miss, on a cache hit, and on a frame's
    first session replay in a process; later arrivals of that line are
    answered by the server's in-memory replay index
    ({!Server.replay_of_span}), keyed by the line's bytes. *)

val open_ : string -> (t, string) result
(** Open (creating, or recovering) the session journal at the given
    path, with its tables sized from the journaled record counts.  A
    [Damaged] file — a complete first line that is not a session header
    — is refused, never clobbered. *)

val lookup_frame : t -> key:string -> string option
(** The completed reply line journaled for a frame, byte-for-byte. *)

val lookup_item : t -> key:string -> index:int -> string option
(** The journaled reply-item JSON for one batch index of an in-flight
    frame. *)

val record_item : t -> key:string -> index:int -> string -> unit
(** Journal one completed batch item (append + flush, one write
    boundary).  Thread-safe: parallel batch workers serialize here. *)

val record_frame : t -> key:string -> id:string -> string -> unit
(** Journal a completed frame's full reply line. *)

val items_done : t -> key:string -> int
(** Completed items journaled for a frame (for resume diagnostics). *)

val compact : t -> unit
(** Atomically rewrite the journal in canonical order: frame keys
    ascending, item records by index before their frame record.  Called
    on graceful drain, it erases append-order noise from connection
    interleaving — two sessions that served the same set of frames
    compact to byte-identical journals, however their clients raced.
    The rewrite goes through {!Macs_util.Journal.write_atomic} (Sink
    boundaries: a crash mid-compaction leaves the old journal intact or
    the new one published, never a torn file). *)
