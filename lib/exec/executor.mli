(** Fault-tolerant work-stealing executor over OCaml 5 domains.

    The suite, fuzz and chaos harnesses are all embarrassingly parallel
    over independent cells (kernel, fuzz case, fault plan).  This module
    runs [cells] numbered [0 .. cells-1] through a client function on
    [jobs] worker domains, with robustness as the contract:

    - every cell runs inside an exception barrier — an escaping exception
      quarantines that one cell into a poison list instead of sinking the
      run;
    - {!Transient} failures get bounded retry with exponential backoff
      whose jitter derives deterministically from the retry seed and the
      cell index, so reruns are reproducible;
    - {!Worker_killed} quarantines the cell {e and} retires the worker
      domain that ran it; the run degrades gracefully to fewer workers
      (the coordinator finishes any orphaned cells itself if every worker
      dies);
    - with [jobs = 1] the executor runs cells inline in index order and
      appends journal records exactly as the sequential harnesses always
      have — byte-identical output is the determinism pin;
    - with [jobs > 1] each worker appends to a private journal shard
      ({!Macs_util.Journal.shard_append}); on completion the coordinator
      atomically rewrites the main journal in cell-index order (the same
      bytes a sequential run produces) and removes the shards.  A crash
      mid-run leaves the shards behind for a resume
      ({!run_journaled} [~resume:true]) to merge back. *)

exception Transient of string
(** Raise from a cell to request a bounded retry with backoff.  A cell
    that still raises [Transient] after [max_attempts] is quarantined. *)

exception Worker_killed of string
(** Raise from a cell to simulate (or report) a lethal cell: the cell is
    quarantined and the worker domain that ran it retires. *)

type retry = {
  max_attempts : int;  (** total attempts per cell, including the first *)
  base_delay_s : float;  (** backoff before the second attempt *)
  max_delay_s : float;  (** cap on any single backoff sleep *)
  seed : int;  (** jitter seed; same seed + cell index → same schedule *)
}

val default_retry : retry
(** 3 attempts, 5 ms base delay, 250 ms cap, seed 0. *)

val backoff_delay : retry:retry -> index:int -> attempt:int -> float
(** Sleep before attempt [attempt + 1] of cell [index]:
    [base * 2^(attempt-1) * (1 + jitter)] capped at [max_delay_s], where
    jitter in [0, 0.5) is drawn from a PRNG keyed on
    [(retry.seed, index, attempt)] — deterministic per (seed, cell). *)

type poison = {
  index : int;  (** which cell *)
  attempts : int;  (** attempts spent before quarantine *)
  error : string;  (** the escaping exception, printed *)
  context : string;  (** minimal client-provided context for triage *)
}

type 'r outcome = Done of 'r | Poisoned of poison

val poison_record : poison -> Macs_util.Journal.record
(** Journal form of a quarantined cell (tag ["poison"]).  Deliberately
    excludes the worker id so parallel and sequential runs journal the
    same bytes. *)

val poison_of_record : Macs_util.Journal.record -> (poison, string) result

type 'r journal = {
  path : string;
  format : string;
  config : Macs_util.Journal.record;
      (** config record a fresh journal (and every shard) starts with; a
          resume keeps the journal's own record bytes instead *)
  config_ok : Macs_util.Journal.record -> (unit, string) result;
      (** on resume, accept or refuse the journal's config record; the
          [Error] message is returned as is *)
  index_of : Macs_util.Journal.record -> int option;
      (** the cell a record closes, or [None] for a record that belongs
          to the next closer ({!Macs_util.Journal.merge_shards}).
          [poison] records are handled by the executor and never reach
          this function. *)
  records_of : int -> 'r -> Macs_util.Journal.record list;
      (** journal records for a completed cell, in the order a sequential
          run would append them. *)
  of_records : Macs_util.Journal.record list -> ('r, string) result;
      (** decode one cell block (the records up to and including its
          closer) back to a result; the inverse of [records_of] *)
}

type stats = {
  jobs : int;  (** worker count actually used *)
  executed : int;  (** cells run fresh this invocation *)
  replayed : int;  (** cells supplied by [already] or the journal *)
  retried : int;  (** transient retries performed *)
  quarantined : int;  (** cells that ended up poisoned *)
  lost_workers : int;  (** worker domains retired by lethal cells *)
  stopped_early : bool;  (** [should_stop] fired before all cells ran *)
}

val run :
  ?jobs:int ->
  ?retry:retry ->
  ?already:(int -> 'r outcome option) ->
  ?context:(int -> string) ->
  ?progress:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  cells:int ->
  (int -> 'r) ->
  'r outcome option array * stats
(** [run ~cells f] executes [f i] for every cell [i] not already
    supplied by [already] and returns one outcome per cell (replayed
    outcomes included; [None] only for cells skipped by an early stop),
    plus run statistics.  Nothing is journaled.

    [jobs] (default 1) is clamped to [1 .. cells].  [jobs = 1] runs
    inline, in index order, and spawns no domain.

    [progress i] is called (serialized under a mutex) as each cell is
    claimed.  [should_stop] is polled before each claim; once it returns
    [true] no further cells start — cells never started stay [None] in
    the returned array and [stopped_early] is set. *)

val run_journaled :
  ?jobs:int ->
  ?resume:bool ->
  ?keep:('r outcome -> bool) ->
  ?sharded:bool ->
  ?context:(int -> string) ->
  ?progress:(int -> unit) ->
  ?should_stop:(unit -> bool) ->
  journal:'r journal ->
  cells:int ->
  (int -> 'r) ->
  ('r outcome option array * stats, string) result
(** {!run} with a checkpoint journal; the executor owns its whole life.

    {b Start.}  Without [resume], or when the file is
    {{!Macs_util.Journal.recovery}[Fresh]}, the journal is created afresh
    with the header and [journal.config] (truncating any old file,
    deleting stale shards).

    {b Resume.}  With [resume] and an intact file, shards a killed
    parallel run left behind are merged in
    ({!Macs_util.Journal.merge_shards}, checking every config record with
    [config_ok]) and each cell block is decoded: a lone [poison] record
    here, any other block by [of_records].  A refused config, an
    undecodable block, or a block for a cell outside [0 .. cells-1] (a
    [poison] index included) returns [Error] before any cell runs.  The
    journal's own config record bytes are kept.  Decoded cells count as
    [replayed] and do not run again — except those [keep] (default: all)
    rejects, which are rewritten out of the journal atomically first.

    {b Journaling.}  [jobs = 1] appends each fresh cell's records to the
    main journal in index order: byte-identical to the historical
    sequential behaviour.  [jobs > 1] journals through per-worker shards
    [<path>.shard<K>], then atomically rewrites the main journal in
    cell-index order and removes the shards; the rewrite is skipped when
    no cell ran fresh, so a complete journal stays untouched.  The
    sharded path is also taken after a resume that merged shards or
    dropped cells (its final rewrite restores index order), and when
    [sharded] is set, which reaches every shard write boundary at
    [jobs = 1] without spawning domains. *)
