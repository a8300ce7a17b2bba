open Convex_machine

(** Bound-oracle cross-validation: the MACS hierarchy checking itself.

    The hierarchy's defining property (paper Figure 1) is an ordering:
    every less-informed model bounds every better-informed one from below,

    {v M <= MA <= MAC <= MACS <= measured v}

    and the A/X decomposition obeys eq. 18
    ([max(t_a, t_x) <= t_p <= t_a + t_x]).  On a consistent machine
    description these hold by construction; a violation means the preset
    is inconsistent (e.g. {!Machine.broken_hierarchy}'s doubled pipes),
    the models have drifted apart, or the simulator is miscounting — all
    bugs worth catching on every run, which is why the suite harness
    cross-checks each successful row and [macs_cli validate] exists.

    Violations are plain data ({!violation}). *)

type violation = {
  invariant : string;  (** e.g. ["MAC<=MACS"] *)
  subject : string;  (** kernel or probe name *)
  detail : string;
}

val default_tol : float
(** Relative slack applied to every comparison (2%): bounds are exact but
    measured times carry strip start-up noise. *)

val t_m : machine:Machine.t -> flops:int -> float
(** The machine-only M bound in CPL: flops over peak FP issue rate. *)

val check_row :
  machine:Machine.t ->
  Fcc.Compiler.t ->
  measured_cpl:float ->
  violation list
(** Simulation-free variant for per-suite-row supervision: recomputes the
    bounds from the compilation result and checks them against one
    measured CPL at {!default_tol}.  Scalar-mode rows check
    [scalar-bound <= measured].
    The [MACS <= measured] link is checked only on memory-paced loops
    ({!Macs_bound.memory_paced}); elsewhere the chime-serialized bound
    legitimately exceeds the chained machine and only the model-internal
    links are enforced. *)

val check_opt_monotonicity :
  ?tol:float -> machine:Machine.t -> Lfk.Kernel.t -> violation list
(** The MACS bound must not grow as the compiler improves: packed
    scheduling and ideal reuse both bound at or below v61.  Compared on
    the drain-neutral machine ([Machine.no_long_z]) because drain
    masking flips with chime composition and is not schedule-monotone. *)

val check_faulted_never_faster :
  ?tol:float ->
  ?machine:Machine.t ->
  Convex_fault.Fault.t ->
  violation list
(** Runs the provably-monotone unit-stride load probe healthy and under
    the plan; the faulted run finishing faster is a violation.  A probe
    that stalls out under the plan is a diagnosed outcome, not a
    violation. *)

(** {1 Whole-machine validation ([macs_cli validate])} *)

type report = {
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  tol : float;
  checked : int;  (** kernels examined (skipped ones excluded) *)
  violations : violation list;
  skipped : (string * Macs_util.Macs_error.t) list;
      (** kernels whose measurement was cancelled by the [watchdog]
          (typically [Budget_exceeded]); a skip is graceful degradation,
          not a violation *)
}

val validate :
  ?tol:float ->
  ?opt:Fcc.Opt_level.t ->
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  ?watchdog:
    (site:string -> (cycle:float -> Macs_util.Macs_error.t option) option) ->
  unit ->
  report
(** Check every vectorizable kernel's hierarchy and schedule monotonicity
    on [machine]; when [faults] is given, also run the faulted-probe
    check.  An empty [violations] list is a clean bill of health.

    [watchdog] is a per-kernel watchdog factory (called with a site
    naming the kernel, conventionally wrapping
    [Convex_harness.Budget.watchdog]); a kernel whose measurement is
    cancelled lands in [skipped] with its typed diagnostic instead of
    aborting the validation. *)

val render : report -> string
