(** Crash-consistent content-addressed result store.

    Results of deterministic computations (suite cells, fuzz cases,
    chaos cells, served replies) are memoised under an MD5 {!key} of
    everything that determines them — kernel spec, machine, fault plan,
    harness config, cache format version.  Each entry is one
    self-verifying record (header line with version, own key, payload
    length and payload MD5, then the payload) in an append-only pack,
    [packs/<pid>-<n>.pack].  A handle creates its own pack on its first
    store and appends every record to it: publishing is one write and
    one fsync, with the directory fsynced once, when the pack is made.
    No other handle appends to that pack, so a record torn by a crash is
    always a pack's last.

    A handle indexes key → (pack, offset, length) on its first {!find}
    or {!store}, by walking the packs' headers and skipping their
    payloads; {!open_dir} reads no pack, and a key missing from the
    index is a miss without touching the disk.  Records other handles
    publish later are not seen by this handle: a miss, which the
    contract allows.  A record that fails verification moves its whole
    pack to [quarantine/] and counts as a miss: the cache may lose work,
    never invent it.

    All record writes are {!Macs_util.Sink} boundaries, so the
    crash-sweep harness covers every store. *)

type t

type counters = { hits : int; misses : int; stores : int; quarantined : int }
(** Per-process counters since {!open_dir} or {!reset_counters}. *)

val open_dir : string -> t
(** Open (creating if needed) a cache rooted at the given directory:
    [packs/], [quarantine/], [cache.log].  Reads no pack. *)

val key : kind:string -> (string * string) list -> string
(** Digest of the canonical journal encoding of [kind], the cache format
    version, and the given (name, value) parts — order-sensitive, so
    callers must build parts deterministically. *)

val find : t -> key:string -> string option
(** The stored payload, byte-for-byte, or [None].  A present-but-corrupt
    record (truncated, bit-flipped, mislabelled) quarantines its pack and
    is reported as a miss — never served. *)

val store : t -> key:string -> string -> unit
(** Append a payload under [key] to this handle's pack and fsync it
    before returning (no-op if the index already holds the key — entries
    are deterministic, so first writer wins).  Stores from several
    domains share the handle under one mutex. *)

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
    verifies but does not [decode] is handled like a corrupt one: its
    pack quarantined, counted as a miss, recomputed and re-stored. *)

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
  entries : int;  (** records whose headers walk, over all packs *)
  packs : int;
  bytes : int;  (** of all packs *)
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
  bad : (string * string) list;
      (** key (or pack, for a header that does not decode), reason *)
  quarantined_packs : int;  (** packs moved to [quarantine/] *)
}

val verify : t -> verify_report
(** Re-hash every record of every pack; a pack holding a bad record or a
    whole header line that does not decode is quarantined.  A pack's
    torn last record, which a crash mid-append leaves, is not bad. *)

type gc_report = {
  kept : int;  (** entries in the packs kept *)
  evicted : int;  (** entries in the packs evicted *)
  freed_bytes : int;
  purged_quarantine : int;
}

val gc : ?max_bytes:int -> t -> gc_report
(** Purge quarantined files; with [max_bytes], additionally evict the
    oldest packs (by modification time) until the rest fit the budget. *)
