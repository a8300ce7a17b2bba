open Convex_machine

(** Deterministic, seedable fault plans for the simulated C-240.

    A plan describes how a degraded machine deviates from the healthy one:
    memory banks running slow or stuck dead, transient ECC-scrub stalls,
    jitter on the refresh window, function pipes streaming below rate, and
    periodic port-steal spikes.  The simulator ({!Convex_vpsim.Sim}), the
    bank model ({!Convex_memsys.Memory}), the trace-replay co-simulator and
    the parallel-mode model all accept a plan through an optional [?faults]
    hook; with no plan (or {!none}) they behave exactly as before.

    A plan may additionally carry a global {!window}: outside
    [\[opens, closes)] every query answers "healthy", so the whole plan is
    a transient event — the substrate must degrade while the window is
    open and converge back to healthy-tail timing once it closes, which is
    exactly what the chaos campaign's recovery SLO checks.

    Plans are pure data: every stochastic choice (refresh jitter) is a hash
    of the plan seed and the cycle, so the same plan always produces the
    same faulted run — fault injection composes with the test suite's
    determinism properties rather than fighting them. *)

type bank_degrade = { bank : int; extra_busy : int }
(** Bank [bank] holds its busy line [extra_busy] cycles longer per access
    (a slow, derated module). *)

type bank_stuck = { bank : int; from_cycle : int; until_cycle : int option }
(** Bank [bank] rejects every access in [\[from_cycle, until_cycle)];
    [None] means the bank never recovers (a dead module — runs touching it
    stall out). *)

type scrub = { bank : int; period : int; duration : int }
(** Transient ECC scrubbing: every [period] cycles, bank [bank] is
    unavailable for [duration] cycles. *)

type pipe_slow = { pipe : Pipe.t; z_factor : float; extra_startup : int }
(** Function pipe [pipe] streams at [z *. z_factor] cycles per element and
    pays [extra_startup] extra issue cycles (a derated or half-disabled
    pipe). *)

type port_spike = { period : int; duration : int }
(** Every [period] cycles the CPU's memory port is stolen for [duration]
    consecutive cycles (bursty cross-CPU traffic, DMA, diagnostics). *)

type window = { opens : int; closes : int }
(** A transient activation window: the plan injects faults only for cycles
    in [\[opens, closes)]. *)

type t = {
  name : string;
  seed : int;
  degraded : bank_degrade list;
  stuck : bank_stuck list;
  scrubs : scrub list;
  refresh_jitter : int;
      (** each refresh window is extended by a per-period pseudorandom
          amount in [\[0, refresh_jitter\]] cycles *)
  slow_pipes : pipe_slow list;
  port_spikes : port_spike list;
  window : window option;
      (** [None] = the plan is permanent; [Some w] = transient, active
          only inside [w] *)
}

val none : t
(** The empty plan: injects nothing. *)

val is_none : t -> bool
(** True when the plan has no injection clauses.  A transient window around
    no clauses still injects nothing. *)

(* ---- structural equality (derived per clause type) ---- *)

val equal_behaviour : t -> t -> bool
(** Structural equality ignoring [name] — two plans injecting the same
    faults are behaviourally interchangeable.  Built from the per-clause
    structural equalities above (not polymorphic compare).  The
    [parse]/[to_spec] round-trip property is stated with this equality. *)

(* ---- queries consumed by the injection hooks ---- *)

val quiescent : t -> lo:int -> hi:int -> bool
(** [quiescent t ~lo ~hi] is a {e proof} that no query at any cycle in
    [\[lo, hi\]] (inclusive) can deviate from the healthy answer: true
    when the plan has no clauses, or when it is transient and its window
    is disjoint from the range.  A permanent plan with clauses is never
    quiescent — ruling out its effects would require the access pattern.
    The tiered fast path ({!Convex_vpsim.Fastpath}) requires this before
    advancing a region in one analytical leap; a [false] answer merely
    forces cycle-level stepping, so conservatism costs speed, never
    correctness. *)

val bank_extra_busy : t -> bank:int -> cycle:int -> int
(** Extra busy cycles bank [bank] pays for an access accepted at [cycle];
    0 outside a transient window. *)

val bank_blocked : t -> bank:int -> cycle:int -> bool
(** Stuck windows and ECC-scrub windows combined, gated by the plan
    window. *)

val refresh_extension : t -> period:int -> cycle:int -> int
(** Extra cycles added to the refresh window of the period containing
    [cycle]; deterministic in [(seed, cycle / period)]; 0 outside a
    transient window. *)

val port_blocked : t -> cycle:int -> bool

val pipe_z_factor : t -> cycle:int -> Pipe.t -> float
(** Per-element slowdown multiplier a pipe pays for an element entering at
    [cycle]; 1 outside a transient window. *)

val pipe_extra_startup : t -> cycle:int -> Pipe.t -> int
(** Extra startup cycles an instruction issued at [cycle] pays; 0 outside
    a transient window. *)

val steal_fraction : t -> float
(** Fraction of cycles lost to port spikes ([duration /. period] summed,
    capped below 1) — the boost {!Convex_vpsim.Parallel} feeds into its
    calibrated contention model.  The analytic parallel model is
    steady-state, so this deliberately ignores any transient [window] and
    describes the plan at full strength. *)

(* ---- clause decomposition (chaos delta-debugging) ---- *)

type clause =
  | Degrade of bank_degrade
  | Stuck of bank_stuck
  | Scrub of scrub
  | Jitter of int
  | Slow_pipe of pipe_slow
  | Port_spike of port_spike
      (** One injection clause of a plan, as written in the spec syntax.
          The global [seed] and [window] are plan-level fields, not
          clauses. *)

val clauses : t -> clause list
(** The plan's injection clauses in spec order. *)

val with_clauses : t -> clause list -> t
(** Replace the plan's injection clauses, keeping [name], [seed] and
    [window].  [with_clauses t (clauses t)] is behaviourally [t]; a
    clause list with several [Jitter] entries collapses to the last, like
    repeated [jitter=] clauses under {!parse}. *)

(* ---- construction ---- *)

val bank_limit : int
(** Exclusive upper bound on bank indices accepted by {!parse} and
    {!validate}: the C-240's 32 interleaved banks. *)

val validate : t -> (unit, string) result
(** Well-formedness of a plan however it was built: banks in
    [\[0, bank_limit)], scrub/spike [0 < duration < period], slow-pipe
    factors [>= 1], nonnegative counts, nonempty windows.  Every plan
    {!parse} accepts validates [Ok]; hand-built or mutated plans are
    checked before a chaos campaign runs them. *)

val parse : string -> (t, string) result
(** Parse a fault spec: either a preset name (see {!presets}) or a
    semicolon-separated clause list.  Clauses:

    - [seed=N]
    - [degrade-bank=B*F] — bank [B] busy time multiplied by integer [F]
    - [stuck-bank=B\@LO-HI] — bank [B] dead for cycles [LO..HI];
      [stuck-bank=B\@LO-] means dead forever from [LO]
    - [scrub=B/P*D] — bank [B] scrubbed [D] cycles every [P]
    - [jitter=J] — refresh windows extended by up to [J] cycles
    - [slow-pipe=NAME*F] — pipe [NAME] ({!Pipe.of_name}) slowed by float
      factor [F]
    - [port-spike=D/P] — port stolen [D] cycles every [P]
    - [window=LO-HI] — the whole plan is transient, active only for
      cycles in [\[LO, HI)]

    Malformed values are rejected with a typed message naming the clause
    and the constraint: banks outside [\[0, bank_limit)], factors below 1,
    non-positive periods or durations, empty windows.

    Example: ["seed=7;window=100-600;degrade-bank=0*4;jitter=6"]. *)

val presets : (string * string * t) list
(** [(name, description, plan)] for the stock scenarios: [bank-degraded],
    [dead-bank], [ecc-scrub], [jittery-refresh], [slow-multiply],
    [port-storm], [brownout]. *)

val to_spec : t -> string
(** Print a plan back in the clause syntax {!parse} accepts, such that
    [parse (to_spec p)] reconstructs [p] exactly up to [name] (the name of
    a clause-parsed plan is its spec text).  Total for every plan built by
    {!parse}; plans constructed by hand with a [degrade-bank] extra-busy
    not on the 8-cycle grid or a [slow-pipe] extra-startup are outside the
    clause grammar and print their nearest representable form.  This is
    the printer the suite and chaos journals store plans with, so a
    resumed run re-parses the identical plan. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
