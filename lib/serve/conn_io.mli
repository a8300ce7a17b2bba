(** Deadline-aware newline-delimited I/O over a raw file descriptor.

    A supervised connection — a TCP socket, or stdin/stdout — cannot
    block forever on a silent or stalled peer the way
    [in_channel]/[out_channel] do.  Reads and writes here
    are bounded by [Unix.select] deadlines against an injectable clock,
    and every peer-inflicted failure — hangup, trickle, stall — comes
    back as a typed value, never an exception. *)

type reader

type read_event =
  | Line of string  (** a complete frame, newline stripped *)
  | Replay of { reply : string; length : int }
      (** a complete frame that [lookup] answered: its reply, and the
          frame's length without the newline *)
  | Oversized of int  (** a complete frame over the cap: its true length *)
  | Eof  (** clean close between frames *)
  | Torn of int  (** the peer vanished mid-frame, [n] bytes in *)
  | Idle_timeout  (** no frame started within the idle cap *)
  | Frame_timeout of int  (** a started frame missed its completion deadline *)
  | Stopped  (** [stop] turned true while waiting for bytes *)
  | Read_error of string

val reader :
  ?idle_timeout_s:float ->
  ?frame_timeout_s:float ->
  ?stop:(unit -> bool) ->
  ?lookup:(Bytes.t -> pos:int -> len:int -> string option) ->
  now:(unit -> float) ->
  limit:int ->
  Unix.file_descr ->
  reader
(** The input side of one connection, with the caps every
    {!read_line} on it applies.  [idle_timeout_s] caps silence before a
    frame's first byte; [frame_timeout_s] caps first byte to newline
    (the slow-loris defense: a client trickling one byte per tick is
    never idle but still misses this); [limit] caps retained bytes —
    the rest of an oversized line streams through a counter and is
    answered as {!Oversized} with its true length.  [stop] is polled
    at least every 100 ms while blocked (default: never true); once it
    holds, the wait ends with {!Stopped}, partial-frame state kept.
    This is how a drain wakes a reader blocked on a pipe, which
    [shutdown(2)] cannot cut.

    [lookup] (default: never) is offered each frame that arrived whole
    in one read, as a span of the read buffer, before the frame is
    copied out; a [Some reply] consumes the frame as {!Replay} with no
    copy made.  The span is valid only during the call.  A frame split
    across reads is accumulated and returned as {!Line}.

    Partial-frame state (a started line, discarded-overflow count)
    lives in the reader and persists across {!read_line} calls. *)

val read_line : reader -> read_event
(** Read the next frame.  A frame found whole in the read buffer
    allocates nothing beyond the returned event and what [lookup]
    allocates. *)

type write_error =
  | Peer_closed  (** EPIPE / ECONNRESET: the client hung up mid-reply *)
  | Write_timeout  (** stalled reader: the client stopped draining replies *)
  | Write_failed of string

type writer

val writer : Unix.file_descr -> writer
(** The output side of one connection.  It owns a scratch buffer that
    each reply is assembled in, so a reply and its newline leave in one
    [write] call without a per-reply copy.  Use one writer per
    connection, from one thread at a time. *)

val write_line :
  ?write_timeout_s:float ->
  now:(unit -> float) ->
  writer ->
  string ->
  (unit, write_error) result
(** Write [line] plus a trailing newline; the whole reply must land
    within one [write_timeout_s] deadline. *)
