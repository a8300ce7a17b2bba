(* Deadline-aware line I/O over a raw file descriptor.

   An [in_channel] blocks forever on a silent peer; a supervised
   connection (a TCP socket, or stdin/stdout) cannot afford that.  This
   module reads newline-delimited frames with [Unix.select]-bounded
   waits — an idle gap between frames and a completion deadline per
   started frame are separate caps, so a slow-loris client (one byte
   per tick, forever) trips the frame deadline even though it is never
   idle — and writes replies with a writability deadline, so a client
   that stops reading (stalled-reader attack: the kernel send buffer
   fills) cannot wedge the server either.  Every failure is a typed
   result; nothing here raises on peer behaviour.

   Both directions work in blocks.  A read scans the buffered bytes for
   the newline and takes the frame as one span (a frame that arrived
   whole is a single [Bytes.sub_string]; only one split across reads
   accumulates in [line]).  Before that copy, a whole frame is offered
   to the caller's [lookup] in place, and a known line is answered with
   no copy at all.  A write assembles the reply and its newline
   in the connection's scratch buffer and sends it with one [write]
   call. *)

(* The current call's caps, [now]-clock values.  An all-float record is
   stored flat, so setting a deadline allocates nothing. *)
type deadlines = { mutable idle : float; mutable frame : float }

type reader = {
  fd : Unix.file_descr;
  idle_timeout_s : float option;
  frame_timeout_s : float option;
  stop : unit -> bool;
  lookup : Bytes.t -> pos:int -> len:int -> string option;
  now : unit -> float;
  limit : int;
  rbuf : Bytes.t;
  mutable rpos : int;  (* next unread byte in rbuf *)
  mutable rlen : int;  (* valid bytes in rbuf *)
  line : Buffer.t;
  mutable over : int;  (* bytes discarded past the frame cap *)
  mutable at_eof : bool;
  deadline : deadlines;
}

let far_future = Float.max_float

(* [idle = nan]: the idle cap starts at the call's first wait. *)
let pending = Float.nan

let reader ?idle_timeout_s ?frame_timeout_s ?(stop = fun () -> false)
    ?(lookup = fun _ ~pos:_ ~len:_ -> None) ~now ~limit fd =
  {
    fd;
    idle_timeout_s;
    frame_timeout_s;
    stop;
    lookup;
    now;
    limit;
    rbuf = Bytes.create 8192;
    rpos = 0;
    rlen = 0;
    line = Buffer.create 256;
    over = 0;
    at_eof = false;
    deadline = { idle = pending; frame = far_future };
  }

type read_event =
  | Line of string  (* a complete frame, newline stripped *)
  | Replay of { reply : string; length : int }
      (* a complete frame [lookup] answered in place; never copied *)
  | Oversized of int  (* a complete frame over the cap: its true length *)
  | Eof  (* clean close between frames *)
  | Torn of int  (* peer vanished mid-frame, [n] bytes in *)
  | Idle_timeout  (* no frame started within the idle cap *)
  | Frame_timeout of int  (* a started frame missed its deadline *)
  | Stopped  (* the stop predicate turned true while waiting *)
  | Read_error of string

(* Waits run in bounded slices and re-check the deadline and the stop
   predicate between them; EINTR just ends a slice early.  The slice
   does two jobs: [select] timeouts must fit in a [timeval] (an
   unbounded deadline, Float.max_float, passed straight through is
   EINVAL on Linux), and a drain must wake a reader blocked on any
   descriptor — [shutdown(2)] cannot cut a pipe, and a signal may land
   on another thread, so the predicate is polled, not signalled. *)
let slice_s = 0.1

(* Wait until [fd] is readable, [deadline] (a [now]-clock value)
   passes, or [stop ()] holds. *)
let rec wait_readable ~now ~stop fd ~deadline =
  let remaining = deadline -. now () in
  if stop () then `Stopped
  else if remaining <= 0.0 then `Timeout
  else
    match Unix.select [ fd ] [] [] (Float.min remaining slice_s) with
    | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
        wait_readable ~now ~stop fd ~deadline
    | _ :: _, _, _ -> `Ready

(* The reading steps below are top-level functions of the reader alone,
   so a call that finds its frame in the buffer allocates nothing but
   its answer. *)

let deadline_of r = function None -> far_future | Some s -> r.now () +. s
let partial r = Buffer.length r.line + r.over

(* append rbuf[rpos, upto) to the partial frame: up to [limit] bytes
   retained, the rest only counted *)
let take r upto =
  let len = upto - r.rpos in
  let keep = min len (max 0 (r.limit - Buffer.length r.line)) in
  Buffer.add_subbytes r.line r.rbuf r.rpos keep;
  r.over <- r.over + (len - keep);
  r.rpos <- upto

let finish_line r =
  let n = partial r in
  let line = Buffer.contents r.line in
  Buffer.clear r.line;
  let over = r.over in
  r.over <- 0;
  if over > 0 then Oversized n else Line line

(* The first newline at or after [i], or -1; bounded by [rlen], not the
   buffer's length: bytes past it are stale. *)
let rec newline_in_bytes r i =
  if i >= r.rlen then -1
  else if Bytes.unsafe_get r.rbuf i = '\n' then i
  else newline_in_bytes r (i + 1)

(* Eight bytes a step: a line's scan takes an eighth of the byte loop's
   iterations, and so depends less on where the loop lands in the
   binary (with the byte loop alone, growth in unrelated code moved
   replay-tcp's server CPU by 12%).  A word xor eight newlines has a
   zero byte exactly when the word holds a newline, and [(x - 0x01..)
   land lnot x land 0x80..] is nonzero exactly when [x] has a zero
   byte. *)
let rec newline r i =
  if i + 8 > r.rlen then newline_in_bytes r i
  else
    let x = Int64.logxor (Bytes.get_int64_ne r.rbuf i) 0x0a0a0a0a0a0a0a0aL in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
      <> 0L
    then newline_in_bytes r i
    else newline r (i + 8)

let at_eof r =
  if partial r > 0 then begin
    let n = partial r in
    Buffer.clear r.line;
    r.over <- 0;
    Torn n
  end
  else Eof

let rec drain_buffer r =
  if r.rpos >= r.rlen then refill r
  else
    let nl = newline r r.rpos in
    if nl >= 0 && partial r = 0 && nl - r.rpos <= r.limit then begin
      let pos = r.rpos and len = nl - r.rpos in
      r.rpos <- nl + 1;
      match r.lookup r.rbuf ~pos ~len with
      | Some reply -> Replay { reply; length = len }
      | None -> Line (Bytes.sub_string r.rbuf pos len)
    end
    else if nl >= 0 then begin
      take r nl;
      r.rpos <- nl + 1;
      finish_line r
    end
    else begin
      (* first bytes of a frame: switch from the idle cap to the frame
         cap *)
      if partial r = 0 then begin
        r.deadline.frame <- deadline_of r r.frame_timeout_s;
        r.deadline.idle <- far_future
      end;
      take r r.rlen;
      refill r
    end

and refill r =
  if r.at_eof then at_eof r
  else begin
    if Float.is_nan r.deadline.idle then
      r.deadline.idle <- deadline_of r r.idle_timeout_s;
    let deadline = Float.min r.deadline.idle r.deadline.frame in
    match wait_readable ~now:r.now ~stop:r.stop r.fd ~deadline with
    | `Stopped -> Stopped
    | `Timeout ->
        if partial r > 0 then Frame_timeout (partial r) else Idle_timeout
    | `Ready -> (
        match Unix.read r.fd r.rbuf 0 (Bytes.length r.rbuf) with
        | 0 ->
            r.at_eof <- true;
            at_eof r
        | n ->
            r.rpos <- 0;
            r.rlen <- n;
            drain_buffer r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
          ->
            r.at_eof <- true;
            at_eof r
        | exception Unix.Unix_error (e, _, _) ->
            Read_error (Unix.error_message e))
  end

(* Read the next frame.  Partial-frame state persists across calls, so a
   frame delivered in many small reads accumulates — but never outlives
   its deadline, which restarts with each call. *)
let read_line r =
  if partial r > 0 then begin
    r.deadline.frame <- deadline_of r r.frame_timeout_s;
    r.deadline.idle <- far_future
  end
  else begin
    r.deadline.frame <- far_future;
    r.deadline.idle <- pending
  end;
  drain_buffer r

(* ---- writes ---- *)

type write_error =
  | Peer_closed  (* EPIPE / ECONNRESET: the client hung up mid-reply *)
  | Write_timeout  (* the client stopped reading and the buffer filled *)
  | Write_failed of string

let rec wait_writable ~now fd ~deadline =
  let remaining = deadline -. now () in
  if remaining <= 0.0 then `Timeout
  else
    match Unix.select [] [ fd ] [] (Float.min remaining slice_s) with
    | _, [], _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
        wait_writable ~now fd ~deadline
    | _, _ :: _, _ -> `Ready

(* A connection's output side: the descriptor plus one scratch buffer
   that every reply is assembled in, line and newline together, so a
   reply leaves in one [write] call (two writes per reply could stall
   behind Nagle's algorithm and the peer's delayed ACK) without a fresh
   copy per reply.  The buffer grows to the largest reply written and
   is kept.  Not thread-safe: one writer per connection, used by one
   thread at a time (the {!Sequencer} lock serializes replies). *)
type writer = { wfd : Unix.file_descr; mutable scratch : Bytes.t }

let writer fd = { wfd = fd; scratch = Bytes.create 4096 }

(* Write [line] plus a newline, bounded by [write_timeout_s] per call
   (not per chunk: a reply must land whole within one deadline). *)
let write_line ?write_timeout_s ~now w line =
  let len = String.length line in
  let total = len + 1 in
  if Bytes.length w.scratch < total then
    w.scratch <- Bytes.create (max total (2 * Bytes.length w.scratch));
  let payload = w.scratch in
  Bytes.blit_string line 0 payload 0 len;
  Bytes.set payload len '\n';
  let deadline =
    match write_timeout_s with
    | None -> far_future
    | Some s -> now () +. s
  in
  let rec go off =
    if off >= total then Ok ()
    else
      match wait_writable ~now w.wfd ~deadline with
      | `Timeout -> Error Write_timeout
      | `Ready -> (
          match Unix.write w.wfd payload off (total - off) with
          | n -> go (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              Error Peer_closed
          | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> go off
          | exception Unix.Unix_error (e, _, _) ->
              Error (Write_failed (Unix.error_message e)))
  in
  go 0
