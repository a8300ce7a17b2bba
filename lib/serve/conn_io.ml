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

type reader = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;  (* next unread byte in rbuf *)
  mutable rlen : int;  (* valid bytes in rbuf *)
  line : Buffer.t;
  mutable over : int;  (* bytes discarded past the frame cap *)
  mutable at_eof : bool;
}

let reader fd =
  {
    fd;
    rbuf = Bytes.create 8192;
    rpos = 0;
    rlen = 0;
    line = Buffer.create 256;
    over = 0;
    at_eof = false;
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

let far_future = Float.max_float

(* Read the next frame.  [idle_timeout_s] caps the silence before its
   first byte; [frame_timeout_s] caps first byte to newline; [limit]
   caps retained bytes (the excess is discarded as it streams in).
   Partial-frame state persists across calls, so a frame delivered in
   many small reads accumulates — but never outlives its deadline. *)
let read_line ?idle_timeout_s ?frame_timeout_s ?(stop = fun () -> false)
    ?(lookup = fun _ ~pos:_ ~len:_ -> None) ~now ~limit r =
  let deadline_of = function
    | None -> far_future
    | Some s -> now () +. s
  in
  let partial () = Buffer.length r.line + r.over in
  let started = partial () > 0 in
  let frame_deadline = ref (if started then deadline_of frame_timeout_s else far_future) in
  let idle_deadline = ref (if started then far_future else deadline_of idle_timeout_s) in
  (* append rbuf[rpos, upto) to the partial frame: up to [limit] bytes
     retained, the rest only counted *)
  let take upto =
    let len = upto - r.rpos in
    let keep = min len (max 0 (limit - Buffer.length r.line)) in
    Buffer.add_subbytes r.line r.rbuf r.rpos keep;
    r.over <- r.over + (len - keep);
    r.rpos <- upto
  in
  let finish_line () =
    let n = partial () in
    let line = Buffer.contents r.line in
    Buffer.clear r.line;
    let over = r.over in
    r.over <- 0;
    if over > 0 then Oversized n else Line line
  in
  (* bounded by [rlen], not the buffer's length: bytes past it are stale *)
  let rec newline i =
    if i >= r.rlen then None
    else if Bytes.unsafe_get r.rbuf i = '\n' then Some i
    else newline (i + 1)
  in
  let rec drain_buffer () =
    if r.rpos >= r.rlen then refill ()
    else
      match newline r.rpos with
      | Some nl when partial () = 0 && nl - r.rpos <= limit -> (
          let pos = r.rpos and len = nl - r.rpos in
          r.rpos <- nl + 1;
          match lookup r.rbuf ~pos ~len with
          | Some reply -> Replay { reply; length = len }
          | None -> Line (Bytes.sub_string r.rbuf pos len))
      | Some nl ->
          take nl;
          r.rpos <- nl + 1;
          finish_line ()
      | None ->
          (* first bytes of a frame: switch from the idle cap to the
             frame cap *)
          if partial () = 0 then begin
            frame_deadline := deadline_of frame_timeout_s;
            idle_deadline := far_future
          end;
          take r.rlen;
          refill ()
  and refill () =
    if r.at_eof then at_eof ()
    else
      let deadline = Float.min !idle_deadline !frame_deadline in
      match wait_readable ~now ~stop r.fd ~deadline with
      | `Stopped -> Stopped
      | `Timeout ->
          if partial () > 0 then Frame_timeout (partial ()) else Idle_timeout
      | `Ready -> (
          match Unix.read r.fd r.rbuf 0 (Bytes.length r.rbuf) with
          | 0 ->
              r.at_eof <- true;
              at_eof ()
          | n ->
              r.rpos <- 0;
              r.rlen <- n;
              drain_buffer ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
            ->
              r.at_eof <- true;
              at_eof ()
          | exception Unix.Unix_error (e, _, _) ->
              Read_error (Unix.error_message e))
  and at_eof () =
    if partial () > 0 then begin
      let n = partial () in
      Buffer.clear r.line;
      r.over <- 0;
      Torn n
    end
    else Eof
  in
  drain_buffer ()

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
