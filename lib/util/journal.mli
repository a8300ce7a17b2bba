(** Versioned, append-only, line-oriented journal files.

    The suite harness checkpoints one record per completed kernel so an
    interrupted run can resume without recomputing anything.  The format is
    deliberately dumb and durable:

    - one record per line; a record is a tag followed by [key=value]
      fields, tab-separated;
    - tags, keys and values are percent-escaped ([%XX]) so arbitrary
      strings round-trip byte-for-byte;
    - the first line is a header record [macs-journal] carrying
      [version=N] and [format=<schema name>] — loading verifies both;
    - floats are serialized as hex literals ({!put_float}), so every
      finite double round-trips exactly (the resume guarantee rests on
      this);
    - a process killed mid-write leaves at most one torn final line, which
      {!recover} cuts off; an undecodable line with a decodable one after
      it is corruption and fails the recovery. *)

type record = { tag : string; fields : (string * string) list }

val version : int
(** Current journal format version (bumped on incompatible changes). *)

val encode : record -> string
(** One line, no trailing newline. *)

val decode : string -> (record, string) result
(** Decode one line in a single scan: each tag, key and value is found
    and copied once.  A [%XX] escape is accepted exactly where
    [int_of_string_opt ("0x" ^ XX)] is, so [%F_] reads as ['\x0f']. *)

val field : record -> string -> string option
val field_err : record -> string -> (string, string) result

(** {1 Typed field codecs} *)

val put_float : float -> string
(** Hex-literal rendering ([%h]); byte-exact round-trip through
    {!get_float} for every float, including [nan] and infinities. *)

val get_float : string -> float option
val put_int : int -> string
val get_int : string -> int option
val put_bool : bool -> string
val get_bool : string -> bool option

(** {1 File operations} *)

val create : path:string -> format:string -> record list -> unit
(** Write a fresh journal: header then [records], as a single {!Sink}
    write boundary (a torn create leaves a byte prefix, never
    interleaved lines).  Truncates any existing file at [path]. *)

val append : path:string -> record -> unit
(** Append one record and flush (one {!Sink} write boundary).  The file
    must already carry a header (see {!create}). *)

type recovery =
  | Fresh  (** missing, empty, or an interrupted {!create}: safe to recreate *)
  | Damaged of string  (** a complete first line that is not a matching header *)
  | Intact of record list  (** the records after the header *)

val recover : path:string -> format:string -> (recovery, string) result
(** Open an existing journal for reuse, reading it once and decoding
    each line once.

    - Crash triage: because {!create} is one write and a torn write can
      only leave a byte prefix (it cannot manufacture a newline), a file
      with no complete first line — or a matching header with no
      complete record after it — is an interrupted create: nothing was
      ever appended to it, and recreating it loses no data, so it is
      [Fresh].  A complete first line that fails to decode as a
      matching header is [Damaged] and must not be clobbered.
    - Repair: the records kept are the longest prefix of complete,
      decodable lines.  Anything after it is a torn tail, truncated in
      place ([Unix.truncate]: same inode, the kept prefix never
      rewritten, so a kill mid-repair cannot shorten the journal), so a
      later {!append} starts a fresh record instead of concatenating
      onto torn bytes.
    - Interior corruption — an undecodable line followed by a decodable
      one — is an [Error "corrupt journal line: …"], and the file is
      left untouched rather than silently discarding valid records.

    Call before appending to a journal a previous writer may have died
    holding. *)

val write_atomic : path:string -> format:string -> record list -> unit
(** Like {!create}, but two-phase: writes a temporary file, fsyncs it,
    renames it into place, then fsyncs the parent directory — so neither
    a crash mid-write nor a power cut just after publish can leave an
    empty or torn journal where a complete one used to be. *)

(** {1 Per-worker shards}

    A parallel run gives each worker domain a private append-only shard
    file [<path>.shard<K>], so no two domains ever write the same file.
    A shard opens with the same header and config record as the main
    journal, then carries one [shard-cell] wrapper per inner record: the
    wrapper stores the cell index, a per-cell sequence number and the
    inner record's encoded line (percent-escaping nests cleanly).
    {!merge_shards} folds surviving shards back into the main journal in
    cell-index order, reconstructing the byte-identical sequential
    journal. *)

val shards : path:string -> (int * string) list
(** Shard files currently present beside [path], sorted by shard index.
    Empty when the directory cannot be read. *)

val remove_shards : path:string -> unit
(** Delete every shard file beside [path]; missing files are ignored. *)

val shard_start :
  path:string -> shard:int -> format:string -> config:record -> unit
(** Create (truncating) shard [shard] of [path]: header then [config].
    The config record must be byte-identical to the main journal's so
    {!merge_shards} can refuse mismatched resumes. *)

val shard_append :
  path:string -> shard:int -> index:int -> seq:int -> record -> unit
(** Append inner record number [seq] of cell [index] to shard [shard]. *)

val merge_shards :
  path:string ->
  format:string ->
  config_ok:(record -> (unit, string) result) ->
  index_of:(record -> int option) ->
  ((record * (int * record list) list) option, string) result
(** Merge-on-resume.  Recovers the main journal at [path] ([None] when
    it is {!Fresh}, an error when it is {!Damaged}), checks its config
    record (the first record after the header) with [config_ok], and
    groups the remaining records into per-cell blocks: a record with
    [index_of r = Some i] closes the block for cell [i], records mapped
    to [None] belong to the next closer (a trailing block with no closer
    is a torn cell and is dropped).  Then recovers every shard file
    beside [path] — a {!Fresh} shard merges as empty, and a shard whose
    config record fails [config_ok] is refused — and merges its cells
    in.  When a cell somehow appears both in the main journal and in a
    shard, the main journal wins.

    If any shards were present, the main journal is atomically rewritten
    as header, config, then every cell's records in ascending cell-index
    order — byte-identical to what a sequential run would have produced
    for those cells — and the shards are deleted.  Returns the config
    record (original bytes) and the merged cells, sorted by index. *)
