(** The persisted fuzz corpus: every interesting case the fuzzer ever
    found, replayed forever.

    A corpus is a {!Macs_util.Journal} file (format
    ["macs-fuzz-corpus"]), so writes are crash-safe (a torn tail from a
    killed fuzzer is repaired, never corrupting earlier entries) and
    appends are atomic per entry.  Each entry records what was being
    fuzzed ([kind]), on which machine, from which seed, the
    payload (a {!Lfk.Codec} kernel or an assembly listing), and the
    expectation:

    - [expect = Violation check]: the case failed check [check] when it
      was committed; replay passes iff the check {e still} fails
      (regressions that silently fix themselves are suspicious too —
      the entry is updated or retired deliberately, not by accident);
    - [expect = Clean]: the case once failed and was then fixed; replay
      passes iff every check passes.

    [dune runtest] replays the committed corpus through
    {!Test_fuzz.corpus_replay}; [macs_cli fuzz --corpus] appends new
    shrunk counterexamples. *)

type kind = Kernel_case | Asm_case

type expect = Clean | Violation of string  (** failing check id *)

type entry = {
  kind : kind;
  machine : string;
      (** {!Convex_dsl.Machine_dsl.label}: a preset name or a full
          machine spec *)
  seed : int;  (** fuzzer seed that produced the case *)
  expect : expect;
  payload : string;  (** {!Lfk.Codec} text or assembly listing *)
}

val format : string
(** The journal format tag, ["macs-fuzz-corpus"]. *)

val create : path:string -> unit
(** Write an empty corpus (header only). *)

type appender
(** A corpus open for appending: recovered once, then written at its
    tail. *)

val appender : path:string -> appender
(** Open [path] for appending, reading it once through
    {!Macs_util.Journal.recover}.  This is the only time the file is
    checked: a torn tail is cut off here, and a damaged header or
    interior corruption raises a [parse_failure] here, before any entry
    is written.  A missing file or an interrupted create is left alone
    until the first {!add}, which (re)creates it.  Each {!add} after
    that appends one record without reading the file again, so a run
    that adds n entries decodes the corpus once, not n times; the
    appender assumes no other writer touches the file meanwhile. *)

val add : appender -> entry -> unit
(** Append one entry (one {!Macs_util.Sink} write boundary). *)

val load : path:string -> (entry list, string) result
(** The entries of an existing corpus, recovered as {!appender} does (a
    torn tail is cut off).  A missing file is an error; an interrupted
    create holds no entries. *)

val check_needs_sim : string -> bool
(** Whether a check id can only be evaluated with the simulator running
    (["sim"], ["oracle:*"], ["fault-sim:*"]) — used to pick the cheapest
    faithful replay and shrink predicate. *)

(** {1 Replay} *)

type replay = {
  entry : entry;
  ok : bool;
  detail : string;  (** what happened, for the failure message *)
}

val replay : ?sim:bool -> path:string -> unit -> (replay list, string) result
(** Load and replay a whole corpus file. *)
