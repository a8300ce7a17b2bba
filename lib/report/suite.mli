open Convex_machine

(** The full Livermore run: all twelve kernels of the paper's benchmark
    range (ten vectorized, two scalar-mode), executed and verified the way
    the original LFK driver reports — per-kernel rates, output checksums
    against the reference implementations, and the harmonic-mean summary.
    This is the "run the whole benchmark" entry point a user of the
    library reaches for first.

    The suite degrades gracefully: a kernel whose simulation fails (e.g.
    stalls out under an injected fault plan) contributes a structured
    diagnostic row instead of aborting the run, after one bounded retry
    with a relaxed progress guard ({!Convex_fault.Retry}).  A supervised
    run ({!Convex_harness.Supervisor}) goes one step further and
    substitutes the analytic MACS-level estimate for such rows, tagged
    {!Estimated}; those rows never enter the measured harmonic means. *)

type perf = {
  cpl : float;
  cpf : float;
  mflops : float;
  checksum : float;  (** sum over the kernel's output arrays after the run *)
  checksum_ok : bool;  (** matches the reference implementation's checksum *)
}

(** Where a successful row's numbers came from. *)
type source =
  | Measured  (** simulated, checksummed against the reference *)
  | Estimated of Macs_util.Macs_error.t
      (** analytic bound substituted after the carried diagnostic stopped
          the simulation; optimistic by construction, excluded from the
          measured harmonic means *)

type row = {
  kernel : Lfk.Kernel.t;
  mode : Convex_vpsim.Job.mode;
  outcome : (perf, Macs_util.Macs_error.t) Stdlib.result;
      (** measurement (or estimate), or the diagnostic that stopped it *)
  source : source;
}

type t = {
  machine : Machine.t;
  faults : Convex_fault.Fault.t;
  rows : row list;
  vector_hmean_mflops : float;
      (** over the vectorized kernels that completed with measurements *)
  overall_hmean_mflops : float;
      (** over all kernels that completed with measurements *)
  violations : Macs.Oracle.violation list;
      (** bound-oracle cross-validation findings for this run, if the
          caller performed any (see {!Macs.Oracle.check_row}) *)
}

val kernels : unit -> Lfk.Kernel.t list
(** The suite's kernel list (vectorized plus scalar-mode), sorted by LFK
    number — the canonical row order every run and journal uses. *)

val run_kernel :
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  machine:Machine.t ->
  opt:Fcc.Opt_level.t ->
  faults:Convex_fault.Fault.t ->
  guard:int ->
  Lfk.Kernel.t ->
  row
(** One suite row: compile, simulate (with one relaxed-guard retry on a
    retryable diagnostic), verify the checksum.  [watchdog] is polled
    from inside the simulator's stepping loop; returning [Some err]
    cancels the run with that diagnostic (see {!Convex_vpsim.Sim.run}). *)

val run_kernel_attempts :
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  machine:Machine.t ->
  opt:Fcc.Opt_level.t ->
  faults:Convex_fault.Fault.t ->
  guard:int ->
  Lfk.Kernel.t ->
  row * (int * Macs_util.Macs_error.t) list
(** Like {!run_kernel}, but also returns the retry history: one
    [(guard_scale, diagnostic)] pair for every earlier attempt a relaxed
    retry consumed ({!Convex_fault.Retry.with_relaxed_guard_attempts}),
    so a supervisor can journal every attempt's diagnostic. *)

val of_rows :
  ?violations:Macs.Oracle.violation list ->
  machine:Machine.t ->
  faults:Convex_fault.Fault.t ->
  row list ->
  t
(** Assemble a suite result from externally produced rows (e.g. rows
    replayed from a checkpoint journal plus freshly run ones), computing
    the harmonic means over the measured rows only. *)

val run :
  ?machine:Machine.t ->
  ?opt:Fcc.Opt_level.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  unit ->
  t
(** [guard] defaults to {!Convex_vpsim.Sim.default_guard} on a healthy
    machine and to a much smaller value under an active fault plan, so
    permanently stalled kernels are diagnosed quickly. *)

val faulted_guard : int
(** The reduced progress guard used under an active fault plan. *)

val failed_rows : t -> (row * Macs_util.Macs_error.t) list
(** Rows that produced neither a measurement nor an estimate. *)

val estimated_rows : t -> (row * Macs_util.Macs_error.t) list
(** Rows whose numbers are analytic estimates, with the diagnostic that
    forced the substitution. *)

val render : t -> string
