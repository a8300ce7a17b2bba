open Convex_machine
open Convex_memsys
open Convex_vpsim

(** The complete MACS hierarchy of bounds and measurements for one kernel
    (paper Figure 1): MA and MAC bounds from workload counts, the MACS
    bound and its f-only / m-only components from the compiled schedule,
    and simulator measurements of the full code (t_p), the A-process (t_a)
    and the X-process (t_x).

    Intended for kernels that vectorize; a kernel that falls back to
    scalar mode gets a degenerate (zero) MACS bound here — analyze those
    with {!Scalar_bound} instead (as {!Macs_report.Suite} and {!Advisor}
    do). *)

type t = {
  kernel : Lfk.Kernel.t;
  compiled : Fcc.Compiler.t;
  machine : Machine.t;
  flops : int;
  ma : Counts.t;
  mac : Counts.t;
  (* bounds, in CPL *)
  t_ma : float;
  t_mac : float;
  t_macs : Macs_bound.result;
  t_macs_f : Macs_bound.result;
  t_macs_m : Macs_bound.result;
  (* measurements, from the simulator *)
  t_p : Measure.t;  (** full code *)
  t_a : Measure.t;  (** access-only (A-process) *)
  t_x : Measure.t;  (** execute-only (X-process) *)
}

val layout_of : Fcc.Compiler.t -> Layout.t
(** Memory layout for simulating a compilation result, built from the
    kernel's declarations with no array data materialized: every array and
    the spill pool placed, aliases (LFK2's XS) sharing their target's base. *)

val analyze :
  ?machine:Machine.t ->
  ?contention:Contention.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?opt:Fcc.Opt_level.t ->
  Lfk.Kernel.t ->
  t
(** Compile the kernel, compute every bound, and run the three
    measurements.  [watchdog] is threaded into every measurement exactly as in
    {!Convex_vpsim.Sim.run}; a firing watchdog raises
    {!Macs_util.Macs_error.Error} (conventionally [Budget_exceeded]),
    which deadline-bounded callers catch and degrade to an
    {!Estimate}-tier answer. *)

val of_compiled :
  ?machine:Machine.t ->
  ?contention:Contention.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Convex_vpsim.Fastpath.fidelity ->
  Fcc.Compiler.t ->
  t
(** Same, for an already-compiled kernel.  [fidelity] is passed to
    {!Convex_vpsim.Measure.run} unchanged (default [Tiered]); both
    steppers measure identically. *)

val cpf_of_cpl : t -> float -> float

(** {1 CPF accessors (the units of paper Tables 4 and 5)} *)

val t_ma_cpf : t -> float
val t_mac_cpf : t -> float
val t_macs_cpf : t -> float
val t_p_cpf : t -> float

val pct_ma : t -> float
(** [t_MA / t_p]: how much of the measured time the MA bound explains. *)

val pct_mac : t -> float
val pct_macs : t -> float

val eq18_holds : t -> bool
(** Paper eq. 18: [max(t_x, t_a) <= t_p <= t_x + t_a] (CPL), with a small
    tolerance for simulator start-up noise. *)

val pp_summary : Format.formatter -> t -> unit
