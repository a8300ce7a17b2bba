(** The fuzzing campaign driver behind [macs_cli fuzz].

    Deterministic: case [i] of seed [s] draws from
    [Random.State.make \[| s; i |\]], so any case replays in isolation
    and two runs with the same seed and count explore the identical
    sequence regardless of how earlier cases fail or how long they take.
    The case mix is roughly 20% assembly round-trip programs, 20%
    loop-carried scalar kernels, 60% vectorizable kernels; kernel cases
    run the full {!Oracle_stack} (one sampled fault plan per case,
    rotating through the configured plans), and every failure is shrunk
    ({!Shrink}) under the cheapest faithful predicate before being
    reported and, when a corpus path is configured, persisted
    ({!Corpus}).

    Two run-level guards: a whole-campaign wall-clock budget (cases stop
    being generated once exhausted — the summary says how many ran), and
    the per-simulation watchdog budget threaded into every
    {!Convex_vpsim.Measure} call.  The probe-based
    faulted-never-faster oracle runs once per fault plan per campaign
    (general kernels are not monotone under faults, the calibrated probe
    is). *)

type config = {
  seed : int;
  count : int;
  machine : Convex_machine.Machine.t;
      (** corpus entries record it by {!Convex_dsl.Machine_dsl.label} *)
  fault_plans : Convex_fault.Fault.t list;
  budget : Convex_harness.Budget.t;  (** per-simulation watchdog *)
  max_wall_s : float option;  (** whole-campaign wall-clock cap *)
  corpus : string option;  (** append shrunk counterexamples here *)
  sim : bool;  (** false = functional stages only *)
  jobs : int;
      (** worker domains ({!Convex_exec.Executor}); 1 = the historical
          sequential behaviour, byte-identical corpus included *)
  cache : string option;
      (** content-addressed result cache directory
          ({!Convex_cache.Cache}): case outcomes are memoised under a
          key of (seed, index, machine spec
          ({!Convex_dsl.Machine_dsl.to_spec}), plans, budget, sim), and a warm
          re-run replays them without touching the oracle stack — with
          byte-identical corpus and summary, hit counters excepted *)
}

val case_key : config -> index:int -> string
(** Case [index]'s result-cache key (see [config.cache]). *)

val default_config : config
(** Seed 42, 500 cases, healthy C-240, the stock fault presets, a
    10-second-per-simulation watchdog, no campaign cap, no corpus,
    simulation on, one worker. *)

type violation = {
  case_index : int;
  case_label : string;
      (** ["vector"], ["scalar"], ["asm"] — or ["quarantined"] for a
          case whose exception escaped the oracle stack and was poisoned
          by the executor *)
  check : string;  (** failing check id *)
  detail : string;
  kind : Corpus.kind;
  payload : string;  (** shrunk {!Lfk.Codec} text or assembly listing *)
  shrink_steps : int;
  shrink_tried : int;
}

type summary = {
  cases_requested : int;
  cases_run : int;
  by_label : (string * int) list;
  checks_passed : int;
  checks_skipped : int;
  violations : violation list;
  probe_violations : (string * string) list;
      (** (fault plan, detail) from faulted-never-faster *)
  wall_s : float;
  stopped_early : bool;
  cache_counters : Convex_cache.Cache.counters option;
      (** per-run hit/miss/store/quarantine counts when a cache was
          configured; deliberately absent from {!render_summary} so
          cold and warm renders stay byte-identical *)
}

val clean : summary -> bool
(** No violations of either kind. *)

val run : ?progress:(int -> unit) -> config -> summary
(** [progress] is called with each case index before the case runs. *)

val render_summary : summary -> string
(** The fuzz report: a campaign table plus one block per violation. *)
