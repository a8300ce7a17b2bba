open Convex_machine
module Fault = Convex_fault.Fault

(** The chaos campaign engine: seeded fault-space exploration with
    journal-backed resume and fault-plan delta-debugging.

    A campaign is a list of {e cells}, each a (kernel, fault plan) pair.
    Cell [i]'s plan is a pure function of [(seed, i)]
    ({!Fault_space.sample} over a [Random.State] made from both), and the
    kernel rotates through the suite's canonical order — so the same
    seed always explores the same fault space, a violation reproduces
    from its (seed, index) alone, and a killed campaign resumes from its
    journal without re-running completed cells.

    Each cell runs under {!Slo.check_cell} with a fresh
    {!Convex_harness.Budget} watchdog; a violating cell's plan is then
    delta-debugged with {!Convex_fuzz.Shrink.Make} over
    {!Fault_space.shrink_candidates}, and the minimal reproducing plan
    is journaled as a {!Fault.to_spec} one-liner. *)

type config = {
  seed : int;
  cells : int;
  machine : Machine.t;
      (** journaled and rendered by its preset name when it equals a
          {!Machine.presets} entry ({!Machine.equal}), else by its full
          {!Convex_dsl.Machine_dsl.to_spec} — so a resume checks the
          machine that actually ran *)
  opt : Fcc.Opt_level.t;
  budget : Convex_harness.Budget.t;
      (** per-cell watchdog.  Keep it to [max_cycles] when the journal
          must be byte-identical across runs: wall-clock budgets can
          fire at different points on different hosts. *)
  guard : int;  (** simulator progress guard per cell *)
  journal : string option;
  resume : bool;
  max_shrink_steps : int;
  jobs : int;
      (** worker domains ({!Convex_exec.Executor}); 1 = the historical
          sequential behaviour.  The merged parallel journal is
          byte-identical to the [jobs = 1] journal for the same seed. *)
  kill_cells : int list;
      (** harness-level fault injection: these cells raise
          {!Convex_exec.Executor.Worker_killed} instead of running, so
          quarantine and graceful worker loss can be exercised end to
          end.  Not part of the journaled config (like [budget]). *)
  cache : string option;
      (** content-addressed result cache ({!Convex_cache.Cache}): each
          cell's verdict is memoised ({!Convex_cache.Cache.memo}) under a
          key of the kernel ({!Lfk.Codec.to_string}), the plan
          ({!Fault.to_spec}), the machine
          ({!Convex_dsl.Machine_dsl.to_spec}, so every field counts, not
          just the name), opt, guard, budget and shrink cap —
          deliberately not seed or index, so any campaign sharing the
          cache directory reuses matching cells.  Journals stay
          byte-identical between cold and warm runs. *)
}

val default_config : config
(** seed 42, 24 cells, healthy c240 at v61, no budget,
    {!Macs_report.Suite.faulted_guard}, no journal, one worker, no
    injected kills, no cache. *)

type cell = { index : int; kernel : Lfk.Kernel.t; plan : Fault.t }

type verdict =
  | Pass
  | Degraded of { kind : string; detail : string }
      (** a typed diagnostic ({!Macs_util.Macs_error.kind} and its
          rendering) — the accepted graceful-degradation outcome *)
  | Violation of { check : string; detail : string }

type cell_result = {
  cell : cell;
  verdict : verdict;
  cpl : float option;  (** measured CPL when the cell produced a row *)
  minimized : string option;
      (** minimal reproducing plan spec, present on violations *)
  shrink_steps : int;
  shrink_tried : int;
}

type t = {
  config : config;
  results : cell_result list;
  quarantined : Convex_exec.Executor.poison list;
      (** cells whose exception escaped the SLO machinery entirely (or
          that were killed via [kill_cells]): journaled as [poison]
          records with minimal context, no verdict *)
  resumed : int;  (** cells replayed from the journal *)
  executed : int;  (** cells actually run this invocation *)
  cache_counters : Convex_cache.Cache.counters option;
      (** hit/miss/store/quarantine counts when a cache was configured;
          deliberately absent from {!render}, so cold and warm renders
          stay byte-identical *)
}

val violations : t -> cell_result list

val clean : t -> bool
(** No violations and nothing quarantined. *)

val cell_key : config -> cell -> string
(** A cell's result-cache key (see [config.cache]). *)

val run_cell : config -> cell -> cell_result
(** Run one cell and, on violation, delta-debug its plan.  Pure in the
    cell and config (modulo wall-clock budgets). *)

val format : string
(** Journal schema name, ["macs-chaos-campaign"]. *)

val run : ?progress:(int -> unit) -> config -> (t, string) result
(** Run the campaign through the fault-tolerant executor.  With a
    journal path the executor owns the journal
    ({!Convex_exec.Executor.run_journaled}): a fresh run writes the
    config record, then one [cell] record per completed cell ([jobs = 1]
    appends to the main journal; [jobs > 1] goes through per-worker
    shards and a final canonical rewrite, byte-identical to the
    sequential journal).  With [resume] and an existing file, shards left
    by a killed parallel run are merged back, the journal replayed —
    refusing a config mismatch ("different campaign configuration"), a
    cell or [poison] index outside the campaign, or a record that
    disagrees with the regenerated cell — and only the missing cells
    run.  [progress] is called with each freshly executed cell index.
    [Error] means the journal could not be used; the campaign itself
    never aborts on a cell. *)

val matrix : t -> Macs_report.Matrix.t
(** Kernel x fault-family grid of worst verdicts. *)

val render : t -> string
(** Summary, resilience matrix, and one block per violation with the
    original and minimal plan specs. *)
