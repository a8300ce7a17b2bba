(** Crash-consistent content-addressed result store.

    Results of deterministic computations (suite cells, fuzz cases,
    chaos cells) are memoised under an MD5 {!key} of everything that
    determines them — kernel spec, machine, fault plan, harness config,
    cache format version.  Entries are self-verifying (header line with
    version, own key, payload length and payload MD5) and published in
    two phases (private tmp file → fsync → rename → directory fsync), so
    a reader can never observe a torn entry under its final name.  An
    entry that fails verification is moved to [quarantine/] and treated
    as a miss: the cache may lose work, never invent it.

    All writes are {!Macs_util.Sink} boundaries, so the crash-sweep
    harness covers every store and publish step. *)

type t

type counters = { hits : int; misses : int; stores : int; quarantined : int }
(** Per-process counters since {!open_dir} or {!reset_counters}. *)

val open_dir : string -> t
(** Open (creating if needed) a cache rooted at the given directory:
    [objects/<2-hex fan-out>/<key>], [quarantine/], [cache.log]. *)

val key : kind:string -> (string * string) list -> string
(** Digest of the canonical journal encoding of [kind], the cache format
    version, and the given (name, value) parts — order-sensitive, so
    callers must build parts deterministically. *)

val find : t -> key:string -> string option
(** The stored payload, byte-for-byte, or [None].  A present-but-corrupt
    entry (truncated, bit-flipped, mislabelled) is quarantined and
    reported as a miss — never served. *)

val store : t -> key:string -> string -> unit
(** Publish a payload under [key] (no-op if the entry already exists —
    entries are deterministic, so first writer wins). *)

val memo :
  t ->
  key:string ->
  encode:('a -> Macs_util.Journal.record list) ->
  decode:(Macs_util.Journal.record list -> ('a, string) result) ->
  (unit -> 'a) ->
  'a
(** [memo t ~key ~encode ~decode compute]: the cached value under [key],
    or [compute ()] stored there.  The payload is [encode]'s records as
    newline-separated {!Macs_util.Journal.encode} lines, so a hit
    replays the exact records a recompute would produce.  An entry that
    verifies but does not [decode] is handled like a corrupt one:
    quarantined, counted as a miss, recomputed and re-stored. *)

val counters : t -> counters
val reset_counters : t -> unit

val log_run : t -> label:string -> unit
(** Append this process's counters as one [run] record to [cache.log]
    inside the cache directory.  Deliberately {e not} part of any result
    journal: hit/miss ratios differ between cold and warm runs, and
    result journals must stay byte-identical across them. *)

val pp_counters : Format.formatter -> counters -> unit

val counters_json : counters -> string
(** The counters as one machine-parseable JSON line,
    [{"cache":{"hits":H,"misses":M,"stores":S,"quarantined":Q}}] — the
    [--stats-json] output of the CLI harnesses and the shape embedded in
    [macs_serve] stats replies. *)

(** {1 Maintenance} *)

type stat = {
  entries : int;
  bytes : int;
  quarantine : int;  (** files currently quarantined *)
  runs : int;  (** [run] records in [cache.log] *)
  total : counters;  (** summed across all logged runs *)
}

val stat : t -> stat
(** Inventory, with the run log read through
    {!Macs_util.Journal.recover}: a torn tail is cut off, as the next
    {!log_run} would, and a damaged or corrupt log counts no runs. *)

type verify_report = {
  checked : int;
  ok : int;
  bad : (string * string) list;  (** key, reason — already quarantined *)
}

val verify : t -> verify_report
(** Re-verify every entry; corrupt ones are quarantined. *)

type gc_report = {
  kept : int;
  evicted : int;
  freed_bytes : int;
  purged_quarantine : int;
  purged_tmp : int;
}

val gc : ?max_bytes:int -> t -> gc_report
(** Purge quarantined files and orphaned tmp files from crashed stores;
    with [max_bytes], additionally evict oldest entries until the object
    store fits the budget. *)

(** {1 Entry internals — exposed for tests and the verifier} *)

val entry_path : t -> string -> string
(** On-disk path of the entry for a key. *)
