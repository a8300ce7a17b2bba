(** Deterministic crash-point injection for durable writes.

    Every durable write in the repo — journal lines, shard cells, corpus
    entries, cache objects — goes through this sink as an explicit
    {e write boundary}.  Boundaries are numbered globally from 1 (under a
    mutex, so parallel workers share one sequence).  Normally the sink is
    transparent: it counts the boundary and performs the I/O.  Armed at
    boundary [n], it simulates the process dying right there:

    - {!Before}: nothing of boundary [n] reaches the file;
    - {!Torn}: a strict prefix (half) of the bytes reaches the file;
    - {!After}: all of boundary [n]'s bytes land, then the process dies.

    Dying means raising {!Crashed} and latching a {e dead} state: every
    subsequent boundary raises immediately without touching the file
    system, exactly as if the process were gone.  Harness code that
    drives a simulated crash catches {!Crashed} at the top level, calls
    {!reset}, and re-runs — the moral equivalent of restarting the
    process against whatever the "crash" left on disk. *)

type mode = Before | Torn | After

val mode_name : mode -> string
val mode_of_name : string -> mode option

exception Crashed of { site : string; point : int }
(** Raised at the armed boundary and at every boundary after it.  Must
    never be swallowed by exception barriers — a dead process does not
    quarantine a cell and move on. *)

val reset : unit -> unit
(** Zero the boundary counter, disarm, and clear the dead latch. *)

val arm : at:int -> mode:mode -> unit
(** Crash at boundary number [at] (1-based, counted from the last
    {!reset}) with the given mode. *)

val boundaries : unit -> int
(** Boundaries seen since the last {!reset}.  Run once disarmed to learn
    how many injection points a workload has, then sweep [1..n]. *)

val crashed : unit -> bool
(** Whether the dead latch is set. *)

val write : out_channel -> site:string -> string -> unit
(** One write boundary: output the string and flush, subject to the
    armed crash point.  [site] labels the boundary in {!Crashed}. *)

val rename : site:string -> string -> string -> unit
(** One rename boundary ([Sys.rename] is atomic, so [Torn] degenerates
    to [Before]): the publish step of two-phase commits. *)

val fsync_out : out_channel -> unit
(** Flush then [Unix.fsync] the channel; best-effort, not a boundary. *)

val fsync_dir : string -> unit
(** [Unix.fsync] a directory so a just-renamed entry survives power
    loss; best-effort, not a boundary. *)
