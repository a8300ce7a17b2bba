(** Connection supervisor for [macs_serve]: many concurrent TCP clients
    over one {!Server.t}, every resource axis bounded, hostile peers
    contained per connection, graceful drain on signal.  It is the only
    connection path: stdio is served as one pre-accepted connection
    ({!handle_connection} with stdin as input and stdout as output).

    - {b Admission control}: at most [max_conns] live connections;
      excess clients get a typed [overloaded] envelope at accept and
      are closed — explicit load-shed, never a silent queue.
    - {b Deadline I/O}: per-connection idle timeout (silence between
      frames), frame-completion deadline (slow-loris defense: a client
      trickling bytes is never idle yet still misses it), and write
      deadline (stalled-reader defense), all via {!Conn_io}.
    - {b Rate limits}: per-connection frame-rate and byte-rate token
      buckets ({!Limiter}); an over-rate frame is answered [throttled]
      and not processed.  [max_strikes] consecutive whole-frame
      rejections close the connection (garbage-flood defense); the
      count reads {!Server.handle_frame}'s rejection flag, and any
      answered frame — control frames and all-items-failing batches
      included — resets it.
    - {b Reply pipelining}: with [pipeline > 1], up to that many frames
      of one connection compute concurrently; replies are re-sequenced
      into arrival order by {!Sequencer}, so the wire contract (one
      reply per frame, in order) is unchanged.  A reply held for an
      earlier one counts against the same depth, so a connection owes
      at most [pipeline] replies at once and its reader stops until one
      is written, replay-index hits included.
    - {b Fault containment}: EPIPE / mid-reply hangup / stalled writes
      latch that connection's output dead and close it with a typed
      diagnostic ({!outcome}); the process and the other connections
      are untouched.  In-flight batches still finish and journal.
    - {b Graceful drain}: {!request_drain} (wired to SIGTERM/SIGINT)
      arms the server drain deadline (batches still running when it
      closes degrade to estimate-tier answers) and stops the accept
      loop and every connection's reads — a blocked read polls the
      drain flag, so sockets and pipes wake alike; {!drain_and_join}
      flushes replies, joins all threads, and compacts the session
      journal ({!Server.finish}).
      kill -9 instead of drain loses nothing: the journal resumes.

    A {!Macs_util.Sink.Crashed} raised by any connection (the crash
    sweep's simulated process death) is latched and re-raised by
    {!serve} / {!drain_and_join} / {!handle_connection} — it is never
    swallowed. *)

type net_config = {
  max_conns : int;  (** live connections before accept-time load-shed *)
  backlog : int;  (** listen(2) backlog *)
  idle_timeout_ms : float option;  (** silence between frames; [None] = off *)
  read_timeout_ms : float option;  (** first byte to newline (slow-loris) *)
  write_timeout_ms : float option;  (** whole reply to the peer *)
  limits : Limiter.config;  (** per-connection rate limits *)
  max_strikes : int;  (** consecutive whole-frame rejections before close *)
  pipeline : int;  (** replies one connection may owe at once *)
  drain_ms : float;  (** graceful-drain window for in-flight batches *)
  log_diagnostics : bool;  (** per-connection close diagnostics on stderr *)
}

val default_net_config : net_config
(** 32 conns, backlog 64, no timeouts, unlimited rates, 64 strikes,
    pipeline 1, 5 s drain, quiet. *)

type outcome =
  | Closed  (** clean EOF between frames *)
  | Hung_up of int  (** peer vanished mid-frame, [n] bytes in *)
  | Idle_timed_out
  | Loris_timed_out of int  (** frame deadline missed, [n] bytes trickled *)
  | Peer_closed_mid_reply  (** EPIPE: replies dropped, work journaled *)
  | Write_stalled  (** the peer stopped reading *)
  | Struck_out of int  (** closed after [n] consecutive rejections *)
  | Drained  (** closed by graceful drain *)
  | Io_failed of string

val outcome_name : outcome -> string

type report = {
  conn : int;
  frames : int;  (** complete frames read (served or rejected typed) *)
  replies : int;  (** replies actually written to the peer *)
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
  mutable accept_retries : int;
}

type t

val create : ?net:net_config -> Server.t -> t
(** Also registers the supervisor's counters as a ["supervisor"]
    section of the server's [stats] control reply. *)

val handle_connection :
  t ->
  ?output:Unix.file_descr ->
  ?handle:(string -> string * bool) ->
  Unix.file_descr ->
  report
(** Serve one already-accepted connection to completion on the calling
    thread (the accept loop spawns a thread per connection around
    this): frames are read from the descriptor, replies written to
    [output] (default: the same descriptor, as for a socket; stdio
    passes stdin and [~output:stdout]).  Each frame the replay index
    does not answer goes to [handle] (default: {!Server.handle_frame}
    on the supervised server; a test passes one it can hold back).
    Owns both descriptors: always closes them.  Raises the latched
    {!Macs_util.Sink.Crashed} if any connection crashed. *)

val listen :
  ?interface:Unix.inet_addr -> port:int -> backlog:int -> unit ->
  Unix.file_descr
(** Bound + listening TCP socket (loopback by default; port [0] picks a
    free port — read it back with {!port_of}). *)

val port_of : Unix.file_descr -> int

val serve : t -> Unix.file_descr -> unit
(** Accept loop until {!request_drain} or a [shutdown] frame, then a
    full {!drain_and_join}.  Accept failures never kill the loop:
    EINTR/ECONNABORTED retry immediately, EMFILE/ENFILE/ENOMEM back
    off exponentially (50 ms doubling to 1 s), only the loss of the
    listen socket itself ends accepting.  Closes the socket. *)

val request_drain : t -> unit
(** Ask for graceful drain: arm the server's drain deadline
    ([drain_ms]) and flip the drain flag that the accept loop and every
    blocked connection read poll within 100 ms.  It sets atomics and
    takes no lock, so it is what the SIGTERM and SIGINT handlers call,
    on either transport. *)

val draining : t -> bool

val drain_and_join : t -> unit
(** The drain itself: {!request_drain}, wait for connection threads
    (force-closing stragglers' output after the window plus slack),
    join them, and compact the session journal.  {!serve} calls this on
    exit; call it directly after driving {!handle_connection} yourself
    (the stdio server does). *)

val live : t -> int
val counters_snapshot : t -> counters
val reports : t -> report list
(** Most recent first, bounded to 256. *)

(** Accept-failure policy, exposed for tests. *)
type accept_failure = Retry | Backoff | Fatal

val classify_accept_error : Unix.error -> accept_failure
val backoff_s : consecutive:int -> float
(** 50 ms doubling per consecutive failure, capped at 1 s. *)
