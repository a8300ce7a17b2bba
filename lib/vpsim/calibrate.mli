open Convex_isa

(** Calibration loops (paper §3.2).

    The paper verifies the machine's specified X/Y/Z parameters and
    discovers the tailgate bubble B by running specially constructed test
    loops.  This module plays the same game against the simulator: it
    builds single-instruction and back-to-back loops, measures them, and
    fits eq. 5 ([X + Y + Z * VL]) and eq. 13 ([Z * VL + B] per steady-state
    repetition).  Reproducing Table 1 means the fitted values match the
    specification table the simulator was built from — the same closure
    check the paper performs against the Convex documentation. *)

type fit = {
  vclass : Instr.vclass;
  startup : float;  (** fitted X + Y *)
  z : float;  (** fitted per-element rate *)
  b : float;  (** fitted steady-state bubble *)
}

val representative : Instr.vclass -> Instr.t
(** A canonical instruction of the class, suitable for a calibration
    loop. *)

val single_run_cycles : Instr.vclass -> vl:int -> float
(** Cycles to execute one isolated instruction of the class at [vl] on
    the C-240, as every function here measures. *)

val fit_class : Instr.vclass -> fit
(** Fit X+Y and Z from a VL sweep of isolated instructions, and B from the
    steady-state delta of a long back-to-back loop.  Uses a refresh-free
    machine variant so the fit is exact, as the paper's conservative
    parameter choices intend. *)

val fit_all : unit -> fit list
(** One fit per vector instruction class, in {!Instr.all_vclasses} order. *)

val chime_cycles : Instr.t list -> float
(** Steady-state cycles of one repetition of the given chime (the paper's
    per-chime calibration loops of §3.5: e.g. LFK1 chime 2 measures
    133.33).  Measured as the per-iteration delta of a long run with
    refresh enabled, matching how the paper timed chime loops. *)
