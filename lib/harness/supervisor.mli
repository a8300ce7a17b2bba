open Convex_machine

(** The run supervisor: a Livermore suite run that always finishes.

    [run] wraps {!Macs_report.Suite} with the three robustness layers the
    bare suite lacks:

    - {b watchdog budgets} ({!Budget}): each kernel's simulation is
      cancelled with a typed [Budget_exceeded] diagnostic when it
      overruns its simulated-cycle or wall-clock cap;
    - {b graceful degradation}: a kernel that fails for any reason —
      over budget, stalled out under a fault plan, livelocked — gets the
      analytic estimate ({!Macs.Estimate}) substituted for its measured
      numbers, tagged [Estimated] and excluded from the measured harmonic
      means.  The suite result never aborts and never loses the
      diagnostic;
    - {b checkpoint/resume} ({!Suite_journal}): with a journal path, the
      executor ({!Convex_exec.Executor.run_journaled}) checkpoints every
      completed cell to disk; a re-run with [~resume:true] merges any
      shards a killed parallel run left, replays completed rows
      byte-identically and runs only the missing kernels.
      [~retry_failed:true] keeps only the measured rows: the rows that
      carry diagnostics (failed or estimated) and quarantined cells are
      rewritten out of the journal before the run, then re-run.

    Every measured row is also cross-checked against the bound oracle
    ({!Macs.Oracle.check_row}); violations ride along in the suite result
    and the journal.

    Kernels run through the fault-tolerant executor
    ({!Convex_exec.Executor}): [~jobs] fans the suite out over worker
    domains with per-worker journal shards, and a kernel whose cell
    raises is quarantined into {!outcome.quarantined} (no row) instead of
    sinking the run.  [~jobs:1] (the default) is pinned byte-identical to
    the historical sequential journaling. *)

type stats = {
  resumed : int;  (** rows replayed from the journal *)
  executed : int;  (** rows simulated by this invocation *)
  estimated : int;
      (** of the executed rows, how many degraded to analytic estimates *)
}

type outcome = {
  suite : Macs_report.Suite.t;
  stats : stats;
  quarantined : Convex_exec.Executor.poison list;
      (** cells whose exception escaped the suite machinery entirely;
          they contribute no row and [--retry-failed] re-runs them *)
  cache_counters : Convex_cache.Cache.counters option;
      (** hit/miss/store/quarantine counts when [~cache] was given;
          never rendered into the suite report, so cold and warm runs
          stay byte-identical *)
}

val cell_key :
  Macs_report.Suite_journal.config ->
  budget:Budget.t ->
  Lfk.Kernel.t ->
  string
(** A suite cell's result-cache key: the run's config record (machine
    spec, opt, fault-plan spec, guard), budget, oracle tolerance and the
    {!Lfk.Codec} kernel text. *)

val run :
  ?machine:Machine.t ->
  ?opt:Fcc.Opt_level.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  ?budget:Budget.t ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?retry_failed:bool ->
  ?cache:string ->
  unit ->
  (outcome, string) result
(** Errors only on journal problems the caller must decide about: an
    unreadable or corrupt journal, a cell block for a kernel the suite
    does not have (a [poison] record included), or a resume whose
    journaled config (machine spec, opt level, fault plan, guard)
    differs from the requested run — replaying rows measured under
    different conditions would silently mix incomparable numbers.  The
    refusal says "different configuration (" and names each field that
    differs; for the machine, only the spec's [;] clauses that differ
    (["banks=64" vs "banks=32"]).  [retry_failed] implies resume.
    Simulation failures never surface here; they degrade to estimates.

    [cache] points at a {!Convex_cache.Cache} directory: each cell's
    journal record block is memoised ({!Convex_cache.Cache.memo}) under a
    key of (config record, budget, oracle tolerance, {!Lfk.Codec} kernel
    text), so a warm re-run journals byte-identical records without
    simulating.  The config record names the machine by its full spec,
    so two machines that share a display name never share entries.  A
    resume aimed at a [Fresh] journal (missing, empty, or an interrupted
    create — see {!Macs_util.Journal.recover}) starts over instead of
    failing. *)
