(** The [macs_serve] request handler: one newline-delimited JSON frame
    in, one reply line out, hardened end to end.  Connections — stdio
    or TCP — are read and written by {!Supervisor}; this module never
    touches a descriptor.

    - {b One reply per frame, always.}  {!handle_line} is total: any
      line — malformed JSON, envelope violations, oversized frames,
      unknown presets, mid-request faults — produces exactly one
      structured reply line.  The only exceptions that escape are
      {!Macs_util.Sink.Crashed} (simulated process death) and
      asynchronous runtime failures.
    - {b Deadlines degrade, never drop.}  A frame's [deadline_ms] /
      [budget_cycles] (or the server defaults) compile into one
      {!Convex_harness.Budget} watchdog shared by the whole batch; items
      whose measurement is cancelled come back as [Estimate]-tier
      answers on the same connection.
    - {b Bounded frames.}  A line longer than [max_frame_bytes] is
      answered with ["frame-too-large"] ({!oversized_reply}); the
      connection reader discards it incrementally, so it is never held
      in memory.  Load-shedding is the supervisor's: one frame per
      connection computes at a time (or [--pipeline] frames), and
      excess connections are refused at accept.
    - {b Idempotent retries.}  A frame's replies are keyed by
      {!Session.frame_key} (id + payload bytes) in the session journal
      and fronted by {!Convex_cache.Cache}; resending a frame replays
      the original reply byte-for-byte.  The key needs only the frame's
      envelope ({!Protocol.decode_envelope}), so a hit builds and
      decodes no batch item: its cost is one {!Json.scan} of the line
      (no JSON tree), a digest, a lookup and the write.
    - {b A replay index.}  A line answered from the session that way
      enters an in-memory index keyed by its exact bytes, and the
      line's next arrival is answered from it: one hash pass over the
      bytes and one compare, no scan, no digest, and, read through
      {!replay_of_span} from a connection buffer, no copy of the line.
      Computed, coalesced, cache-answered, rejected, control and
      oversized frames never enter; a different byte anywhere
      (whitespace included) is a different line and takes the full
      path.  An entry's reply is the string the session already holds,
      so the index grows only with the session.  The index starts
      empty in every process and cannot change a reply or a [stats]
      counter: a hit counts as the session replay it repeats, and a
      cache-answered line goes to the cache, and into its hit count,
      every time.
    - {b Crash-safe resume.}  Batch items journal as they complete; a
      server killed mid-batch and restarted on the same session file
      recomputes only the missing items and never re-executes completed
      work. *)

type config = {
  jobs : int;  (** worker domains per batch (via {!Convex_exec.Executor}) *)
  max_batch : int;  (** items per frame before [batch-too-large] *)
  max_frame_bytes : int;  (** request line length before [frame-too-large] *)
  default_deadline_ms : float option;
  default_budget_cycles : float option;
  session : string option;  (** session journal path *)
  cache_dir : string option;  (** reply cache directory *)
}

val default_config : config
(** jobs 1, max_batch 64, 1 MiB frames, no deadline, no
    session, no cache. *)

type t

val create : config -> (t, string) result
(** Fails only when the session journal exists and is not a macs-serve
    session (it is never clobbered). *)

type stats = {
  frames : int;  (** work frames answered *)
  control : int;  (** control frames answered *)
  rejected : int;  (** frames rejected whole with a typed error *)
  replayed_frames : int;  (** served byte-identically from journal/cache *)
  coalesced : int;  (** of those, concurrent duplicates that parked on an
                        in-flight twin (single-flight dedup) *)
  items : int;  (** batch items evaluated or replayed *)
  replayed_items : int;  (** items replayed from the session journal *)
  decoded_items : int;
      (** batch items decoded from the wire: only a frame that misses
          both the session and the cache decodes its items *)
  degraded : int;  (** items answered at estimate tier *)
}

val stats : t -> stats

val stats_json : t -> Json.t
(** Server counters plus cache counters (when a cache is attached) plus
    any {!set_stats_extra} sections, as one JSON object — the body of
    the [stats] control reply. *)

val set_stats_extra : t -> (unit -> (string * Json.t) list) -> unit
(** Register extra top-level sections for {!stats_json} (the connection
    supervisor reports its counters through this). *)

val max_frame_bytes_of : t -> int
(** The configured request-line cap (the supervisor reads it to bound
    raw socket reads before the line ever reaches {!handle_line}). *)

val oversized_reply : t -> int -> string
(** The [frame-too-large] reply for a request line of the given length,
    which the connection reader discarded unread; counted as
    [rejected].  {!handle_line} answers an over-cap line with the same
    bytes. *)

val replay_of_span : t -> Bytes.t -> pos:int -> len:int -> string option
(** The replay index's reply for the request line held in
    [bytes[pos, pos + len)], if that exact line was answered from the
    session before in this process.  It copies and
    counts nothing: a caller that serves the reply must call
    {!note_replay}.  The supervisor offers each whole line in its read
    buffer here before copying it out. *)

val note_replay : t -> unit
(** Count one frame served from {!replay_of_span}: [frames] and
    [replayed_frames] move exactly as for a replay on the full path. *)

val handle_frame : t -> string -> string * bool
(** Serve one request line to one reply line (no trailing newline),
    and say whether that reply rejects the frame whole: [true] for the
    [frame-too-large], [bad-frame], envelope ([bad-request],
    [batch-too-large]) and [internal] error envelopes, [false] for a
    batch answer (even one whose every item failed) and for control
    replies.  The connection supervisor counts its strikes from this
    flag instead of re-reading the reply.  A line in the replay index
    ({!replay_of_span}) is answered from it first.  Thread-safe: concurrent
    callers carrying the same frame key coalesce onto a single
    computation ({e single flight}) — one journal append, one cache
    store, byte-identical replies. *)

val handle_line : t -> string -> string
(** [fst (handle_frame t line)]. *)

val shutdown_requested : t -> bool
(** Whether a [shutdown] control frame has been served (or {!drain}
    called). *)

val drain : t -> within_ms:float -> unit
(** Begin graceful drain: marks the server stopping and arms a global
    wall-clock deadline [within_ms] from now that every in-flight (and
    subsequent) batch watchdog polls — batches still running when the
    window closes degrade to analytic estimate-tier answers, exactly
    like budget expiry.  The first call arms the deadline; later calls
    keep it.  The connections are the supervisor's to stop. *)

val draining : t -> bool

val finish : t -> unit
(** Flush the session to its canonical durable form
    ({!Session.compact}); call after the last connection closes. *)
