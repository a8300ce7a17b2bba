(* The connection supervisor: many concurrent TCP clients multiplexed
   over one [Server.t], each connection on its own (lightweight) thread
   with every resource axis bounded.  Stdio is the same path: one
   pre-accepted connection whose input and output are stdin and stdout.

   Lifecycle of a connection:

   - admission: past [max_conns] live connections, the client is
     answered at accept with a typed [overloaded] envelope and closed —
     explicit load-shed, never a silent queue;
   - reads go through {!Conn_io}: an idle cap between frames, a
     completion deadline per started frame (slow-loris defense), and
     incremental discard of oversized lines;
   - each complete frame passes the per-connection {!Limiter} (frame
     rate and byte rate) or is answered [throttled] without being
     processed;
   - frames are numbered by arrival and replies sequenced through a
     {!Sequencer} reorder buffer, so [pipeline > 1] overlaps batch
     computation with reply writing while the wire stays
     one-reply-per-frame-in-order;
   - writes are deadline-bounded; a peer that hangs up mid-reply
     (EPIPE) or stops reading (stalled writer) latches the connection's
     output dead — in-flight work still completes and journals, the
     replies are dropped, and the connection closes with a typed
     per-connection diagnostic instead of taking the process down;
   - [max_strikes] consecutive whole-frame rejections (garbage floods)
     close the connection;
   - drain: {!request_drain} (the SIGTERM/SIGINT path) arms the
     server's drain deadline so in-flight batches finish or degrade to
     estimate-tier answers, and stops the accept loop and every
     connection's reads (each blocked read polls the drain flag, which
     wakes sockets and pipes alike); {!drain_and_join} then flushes
     replies, joins every thread, and compacts the session journal
     through [Server.finish].

   A {!Macs_util.Sink.Crashed} from any connection (the crash sweep's
   simulated process death) is stashed and re-raised from the
   supervising call — a dead process must not keep serving. *)

module Sink = Macs_util.Sink

type net_config = {
  max_conns : int;
  backlog : int;
  idle_timeout_ms : float option;
  read_timeout_ms : float option;
  write_timeout_ms : float option;
  limits : Limiter.config;
  max_strikes : int;
  pipeline : int;
  drain_ms : float;
  log_diagnostics : bool;
}

let default_net_config =
  {
    max_conns = 32;
    backlog = 64;
    idle_timeout_ms = None;
    read_timeout_ms = None;
    write_timeout_ms = None;
    limits = Limiter.default_config;
    max_strikes = 64;
    pipeline = 1;
    drain_ms = 5_000.0;
    log_diagnostics = false;
  }

type outcome =
  | Closed  (* clean EOF between frames *)
  | Hung_up of int  (* peer vanished mid-frame, n bytes in *)
  | Idle_timed_out
  | Loris_timed_out of int  (* frame deadline missed, n bytes trickled *)
  | Peer_closed_mid_reply
  | Write_stalled
  | Struck_out of int  (* closed after n consecutive whole-frame rejections *)
  | Drained
  | Io_failed of string

let outcome_name = function
  | Closed -> "closed"
  | Hung_up n -> Printf.sprintf "hung-up mid-frame (%d bytes in)" n
  | Idle_timed_out -> "idle-timeout"
  | Loris_timed_out n -> Printf.sprintf "frame-timeout (%d bytes trickled)" n
  | Peer_closed_mid_reply -> "peer-closed-mid-reply"
  | Write_stalled -> "write-stalled"
  | Struck_out n -> Printf.sprintf "struck-out (%d consecutive rejections)" n
  | Drained -> "drained"
  | Io_failed why -> "io-failed: " ^ why

type report = {
  conn : int;
  frames : int;  (* complete frames read (processed or rejected typed) *)
  replies : int;  (* replies actually written to the peer *)
  throttled : int;
  outcome : outcome;
}

type counters = {
  mutable accepted : int;
  mutable rejected_at_accept : int;
  mutable conns_closed : int;
  mutable frames_read : int;
  mutable throttled_frames : int;
  mutable idle_timeouts : int;
  mutable loris_timeouts : int;
  mutable hung_up : int;
  mutable peer_closed : int;
  mutable write_stalls : int;
  mutable struck_out : int;
  mutable drained_conns : int;
  mutable accept_retries : int;  (* EINTR / EMFILE / ... survived *)
}

type t = {
  server : Server.t;
  net : net_config;
  now : unit -> float;
  live : int Atomic.t;
  conn_seq : int Atomic.t;
  drain_requested : bool Atomic.t;
  crash : exn option Atomic.t;  (* first Sink.Crashed, latched *)
  mutex : Mutex.t;  (* guards counters, reports, conns, threads *)
  counters : counters;
  mutable reports : report list;  (* most recent first, bounded *)
  conns : (int, Unix.file_descr) Hashtbl.t;
      (* live output fds, force-closed when a drain overruns *)
  mutable threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let bump t f = locked t (fun () -> f t.counters)

let stats_fields t =
  let c, live =
    locked t (fun () ->
        ({ t.counters with accepted = t.counters.accepted }, Atomic.get t.live))
  in
  let fields =
    [
      ("accepted", c.accepted);
      ("rejected_at_accept", c.rejected_at_accept);
      ("live", live);
      ("closed", c.conns_closed);
      ("frames_read", c.frames_read);
      ("throttled", c.throttled_frames);
      ("idle_timeouts", c.idle_timeouts);
      ("loris_timeouts", c.loris_timeouts);
      ("hung_up", c.hung_up);
      ("peer_closed_mid_reply", c.peer_closed);
      ("write_stalls", c.write_stalls);
      ("struck_out", c.struck_out);
      ("drained_conns", c.drained_conns);
      ("accept_retries", c.accept_retries);
    ]
  in
  [
    ( "supervisor",
      Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) fields)
    );
  ]

let create ?(net = default_net_config) server =
  let t =
    {
      server;
      net =
        {
          net with
          max_conns = max 1 net.max_conns;
          backlog = max 1 net.backlog;
          pipeline = max 1 net.pipeline;
          max_strikes = max 1 net.max_strikes;
          drain_ms = Float.max 0.0 net.drain_ms;
        };
      now = Unix.gettimeofday;
      live = Atomic.make 0;
      conn_seq = Atomic.make 0;
      drain_requested = Atomic.make false;
      crash = Atomic.make None;
      mutex = Mutex.create ();
      counters =
        {
          accepted = 0;
          rejected_at_accept = 0;
          conns_closed = 0;
          frames_read = 0;
          throttled_frames = 0;
          idle_timeouts = 0;
          loris_timeouts = 0;
          hung_up = 0;
          peer_closed = 0;
          write_stalls = 0;
          struck_out = 0;
          drained_conns = 0;
          accept_retries = 0;
        };
      reports = [];
      conns = Hashtbl.create 64;
      threads = [];
    }
  in
  Server.set_stats_extra server (fun () -> stats_fields t);
  t

let stash_crash t exn =
  ignore (Atomic.compare_and_set t.crash None (Some exn) : bool);
  Atomic.set t.drain_requested true

let check_crash t =
  match Atomic.get t.crash with None -> () | Some exn -> raise exn

let counters_snapshot t =
  locked t (fun () -> { t.counters with accepted = t.counters.accepted })

let reports t = locked t (fun () -> t.reports)
let live t = Atomic.get t.live

(* ------------------------------------------------------------------ *)
(* Per-connection protocol errors                                      *)

let throttled_error why = Protocol.perror ~kind:"throttled" why

let timeout_error what =
  Protocol.perror ~kind:"timeout"
    (Printf.sprintf
       "%s; the connection is being closed, completed work is journaled"
       what)

let overloaded_conn_error max_conns =
  Protocol.perror ~kind:"overloaded"
    (Printf.sprintf
       "all %d connection slots are busy; the connection was refused, retry \
        later"
       max_conns)

let draining_error =
  Protocol.perror ~kind:"draining"
    "the server is draining; no new frames are accepted on this connection"

(* ------------------------------------------------------------------ *)
(* One connection                                                      *)

let ms_to_s = Option.map (fun ms -> Float.max 0.001 (ms /. 1000.0))

let finish_report t report =
  bump t (fun c ->
      c.conns_closed <- c.conns_closed + 1;
      match report.outcome with
      | Closed -> ()
      | Hung_up _ -> c.hung_up <- c.hung_up + 1
      | Idle_timed_out -> c.idle_timeouts <- c.idle_timeouts + 1
      | Loris_timed_out _ -> c.loris_timeouts <- c.loris_timeouts + 1
      | Peer_closed_mid_reply -> c.peer_closed <- c.peer_closed + 1
      | Write_stalled -> c.write_stalls <- c.write_stalls + 1
      | Struck_out _ -> c.struck_out <- c.struck_out + 1
      | Drained -> c.drained_conns <- c.drained_conns + 1
      | Io_failed _ -> ());
  locked t (fun () ->
      let kept =
        if List.length t.reports >= 256 then
          List.filteri (fun i _ -> i < 255) t.reports
        else t.reports
      in
      t.reports <- report :: kept);
  if t.net.log_diagnostics then
    Printf.eprintf
      "macs_serve: conn %d closed: %s (%d frames, %d replies, %d throttled)\n%!"
      report.conn
      (outcome_name report.outcome)
      report.frames report.replies report.throttled;
  report

let handle_connection t ?output ?handle fd =
  let output = Option.value output ~default:fd in
  let handle = Option.value handle ~default:(Server.handle_frame t.server) in
  let conn = Atomic.fetch_and_add t.conn_seq 1 in
  Atomic.incr t.live;
  locked t (fun () ->
      t.counters.accepted <- t.counters.accepted + 1;
      Hashtbl.replace t.conns conn output);
  let net = t.net in
  let lookup = Server.replay_of_span t.server in
  let reader =
    Conn_io.reader
      ?idle_timeout_s:(ms_to_s net.idle_timeout_ms)
      ?frame_timeout_s:(ms_to_s net.read_timeout_ms)
      ~stop:(fun () -> Atomic.get t.drain_requested)
      ~lookup ~now:t.now
      ~limit:(Server.max_frame_bytes_of t.server)
      fd
  in
  let limiter = Limiter.make ~config:net.limits ~now:t.now () in
  let writer = Conn_io.writer output in
  let write line =
    Conn_io.write_line
      ?write_timeout_s:(ms_to_s net.write_timeout_ms)
      ~now:t.now writer line
  in
  let seqr = Sequencer.create ~write in
  let seq = ref 0 in
  let frames = ref 0 in
  let throttled = ref 0 in
  let strikes = ref 0 in
  (* pipeline bookkeeping: frames in flight on worker threads; with the
     replies the sequencer holds behind an earlier one, they are the
     replies this connection owes, at most [pipeline] at once *)
  let pm = Mutex.create () in
  let slot = Condition.create () in
  let inflight = ref 0 in
  (* [rejected] says the reply is a whole-frame rejection (a top-level
     error envelope, not a batch answer with item errors): it strikes *)
  let submit_reply s (reply, rejected) =
    Sequencer.submit seqr ~seq:s reply;
    if rejected then incr strikes else strikes := 0
  in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in
  (* wait, holding [pm] on return, until fewer than [pipeline] replies
     are owed.  A worker broadcasts [slot] after each submit, which is
     the only way a held reply leaves the sequencer. *)
  let await_slot () =
    Mutex.lock pm;
    while
      !inflight + Sequencer.pending seqr >= net.pipeline
      && Atomic.get t.crash = None
    do
      Condition.wait slot pm
    done
  in
  (* a reply the reader already holds (a replay-index hit) is written
     on this thread, but still takes a slot of the pipeline: behind a
     slow frame it would otherwise queue in the sequencer unbounded *)
  let answer_now answer =
    let s = next_seq () in
    if net.pipeline > 1 then begin
      await_slot ();
      Mutex.unlock pm
    end;
    submit_reply s answer
  in
  let run_frame line =
    let s = next_seq () in
    if net.pipeline <= 1 then submit_reply s (handle line)
    else begin
      await_slot ();
      incr inflight;
      Mutex.unlock pm;
      if Atomic.get t.crash <> None then begin
        Mutex.lock pm;
        decr inflight;
        Condition.broadcast slot;
        Mutex.unlock pm
      end
      else
        ignore
          (Thread.create
             (fun () ->
               (match handle line with
               | answer -> submit_reply s answer
               | exception (Sink.Crashed _ as exn) -> stash_crash t exn
               | exception exn ->
                   submit_reply s
                     ( Protocol.error_reply
                         (Protocol.perror ~kind:"internal"
                            (Printexc.to_string exn)),
                       true ));
               Mutex.lock pm;
               decr inflight;
               Condition.broadcast slot;
               Mutex.unlock pm)
             ())
    end
  in
  let wait_inflight () =
    Mutex.lock pm;
    while !inflight > 0 do
      Condition.wait slot pm
    done;
    Mutex.unlock pm
  in
  (* a rejected frame still owns its arrival slot in the reply order *)
  let reject s err = submit_reply s (Protocol.error_reply err, true) in
  let rec loop () =
    check_crash t;
    if Atomic.get t.drain_requested then Drained
    else
      match Conn_io.read_line reader with
      | Conn_io.Eof -> Closed
      | Conn_io.Torn n -> Hung_up n
      | Conn_io.Stopped -> Drained
      | Conn_io.Idle_timeout ->
          reject (next_seq ()) (timeout_error "idle timeout: no frame arrived");
          Idle_timed_out
      | Conn_io.Frame_timeout n ->
          reject (next_seq ())
            (timeout_error
               (Printf.sprintf
                  "frame deadline missed after %d bytes (slow-loris posture)" n));
          Loris_timed_out n
      | Conn_io.Read_error why -> Io_failed why
      | Conn_io.Oversized bytes ->
          incr frames;
          bump t (fun c -> c.frames_read <- c.frames_read + 1);
          submit_reply (next_seq ()) (Server.oversized_reply t.server bytes, true);
          after_frame ()
      | Conn_io.Replay { reply; length } ->
          (* the server's replay index answered the line in the read
             buffer: counted as the full path counts a replay *)
          admit ~bytes:(length + 1) (fun () ->
              Server.note_replay t.server;
              answer_now (reply, false))
      | Conn_io.Line line ->
          admit ~bytes:(String.length line + 1) (fun () -> run_frame line)
  and admit ~bytes serve =
    incr frames;
    bump t (fun c -> c.frames_read <- c.frames_read + 1);
    (match Limiter.admit limiter ~bytes with
    | Limiter.Throttled why ->
        incr throttled;
        bump t (fun c -> c.throttled_frames <- c.throttled_frames + 1);
        reject (next_seq ()) (throttled_error why)
    | Limiter.Admitted -> serve ());
    after_frame ()
  and after_frame () =
    if !strikes >= t.net.max_strikes then begin
      (* the goodbye notice is itself a rejection envelope — count the
         strikes before it feeds back into the counter *)
      let n = !strikes in
      reject (next_seq ())
        (Protocol.perror ~kind:"throttled"
           (Printf.sprintf
              "%d consecutive rejected frames; closing the connection" n));
      Struck_out n
    end
    else
      match Sequencer.failure seqr with
      | Some Conn_io.Peer_closed -> Peer_closed_mid_reply
      | Some Conn_io.Write_timeout -> Write_stalled
      | Some (Conn_io.Write_failed why) -> Io_failed why
      | None -> if Server.shutdown_requested t.server then Drained else loop ()
  in
  let outcome =
    try loop () with
    | Sink.Crashed _ as exn ->
        stash_crash t exn;
        Io_failed "crashed"
    | exn -> Io_failed (Printexc.to_string exn)
  in
  (* in-flight batches finish (their work journals) even when the peer
     is gone or the outcome was hostile; their replies drain through
     the sequencer, which drops them if the output latched dead *)
  wait_inflight ();
  (match outcome with
  | Drained -> (
      (* best-effort goodbye so a lock-step client is not left hanging *)
      match Sequencer.failure seqr with
      | Some _ -> ()
      | None -> ignore (write (Protocol.error_reply draining_error)))
  | _ -> ());
  locked t (fun () -> Hashtbl.remove t.conns conn);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (if output == fd then [ fd ] else [ fd; output ]);
  Atomic.decr t.live;
  let report =
    finish_report t
      {
        conn;
        frames = !frames;
        replies = Sequencer.written seqr;
        throttled = !throttled;
        outcome;
      }
  in
  check_crash t;
  report

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)

let listen ?(interface = Unix.inet_addr_loopback) ~port ~backlog () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (interface, port));
  Unix.listen sock backlog;
  sock

let port_of sock =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> 0

(* Classify an accept failure: retry immediately, back off and retry,
   or give up.  Exposed because the policy is the point. *)
type accept_failure = Retry | Backoff | Fatal

let classify_accept_error = function
  | Unix.EINTR -> Retry
  | Unix.ECONNABORTED -> Retry  (* the peer gave up while queued *)
  | Unix.EAGAIN | Unix.EWOULDBLOCK -> Retry
  | Unix.EMFILE | Unix.ENFILE -> Backoff  (* fd exhaustion: shed load *)
  | Unix.ENOMEM | Unix.ENOBUFS -> Backoff
  | Unix.EBADF | Unix.EINVAL -> Fatal  (* the listen socket is gone *)
  | _ -> Backoff

let backoff_s ~consecutive =
  Float.min 1.0 (0.05 *. (2.0 ** float_of_int (min consecutive 10)))

let reject_overloaded t fd =
  bump t (fun c -> c.rejected_at_accept <- c.rejected_at_accept + 1);
  (* best-effort: a refused client deserves a typed envelope, but a
     hostile one that never reads must not wedge the accept loop *)
  ignore
    (Conn_io.write_line ~write_timeout_s:0.25 ~now:t.now (Conn_io.writer fd)
       (Protocol.error_reply (overloaded_conn_error t.net.max_conns)));
  try Unix.close fd with Unix.Unix_error _ -> ()

let spawn_connection t fd =
  let thread =
    Thread.create
      (fun () ->
        match handle_connection t fd with
        | (_ : report) -> ()
        | exception exn -> stash_crash t exn)
      ()
  in
  locked t (fun () -> t.threads <- thread :: t.threads)

(* Safe in an OCaml signal handler: it sets atomics and takes no lock.
   Arming the server's drain deadline here (not when the run loop
   notices) bounds a batch already computing on the signalled thread.
   Blocked reads see the flag within one [Conn_io] slice. *)
let request_drain t =
  Server.drain t.server ~within_ms:t.net.drain_ms;
  Atomic.set t.drain_requested true

let draining t = Atomic.get t.drain_requested

let force_close t =
  let fds =
    locked t (fun () -> Hashtbl.fold (fun _ fd l -> fd :: l) t.conns [])
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

let join_threads t =
  let threads = locked t (fun () -> t.threads) in
  List.iter (fun th -> try Thread.join th with _ -> ()) threads;
  locked t (fun () -> t.threads <- [])

(* Drain to completion: stop new work, wait for every connection thread
   within the drain window (plus slack for the estimate-tier fallback to
   land), then force-close stragglers. *)
let drain_and_join t =
  request_drain t;
  let deadline = t.now () +. (t.net.drain_ms /. 1000.0) +. 2.0 in
  let rec wait () =
    if Atomic.get t.live = 0 then ()
    else if t.now () > deadline then force_close t
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ();
  join_threads t;
  check_crash t;
  Server.finish t.server

let serve t sock =
  let consecutive = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      let rec accept_loop () =
        check_crash t;
        if Atomic.get t.drain_requested || Server.shutdown_requested t.server
        then ()
        else
          (* tick so drain requests (signals) are honored even when no
             client ever connects *)
          match Unix.select [ sock ] [] [] 0.1 with
          | [], _, _ -> accept_loop ()
          | _, _, _ -> (
              match Unix.accept sock with
              | fd, _ ->
                  consecutive := 0;
                  if Atomic.get t.live >= t.net.max_conns then
                    reject_overloaded t fd
                  else spawn_connection t fd;
                  accept_loop ()
              | exception Unix.Unix_error (e, _, _) -> (
                  bump t (fun c -> c.accept_retries <- c.accept_retries + 1);
                  match classify_accept_error e with
                  | Retry -> accept_loop ()
                  | Backoff ->
                      incr consecutive;
                      if t.net.log_diagnostics then
                        Printf.eprintf
                          "macs_serve: accept failed (%s); backing off %.0f \
                           ms\n\
                           %!"
                          (Unix.error_message e)
                          (backoff_s ~consecutive:!consecutive *. 1000.0);
                      Thread.delay (backoff_s ~consecutive:!consecutive);
                      accept_loop ()
                  | Fatal ->
                      if not (Atomic.get t.drain_requested) then
                        Printf.eprintf
                          "macs_serve: listen socket lost (%s); draining\n%!"
                          (Unix.error_message e)))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      in
      accept_loop ());
  drain_and_join t
