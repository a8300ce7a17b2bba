open Convex_machine

(** Goal-directed optimization advice (the paper's conclusion: "Aspects of
    the MACS bounds hierarchy could be incorporated within a goal-directed
    optimizing compiler that would efficiently assess where and how best
    to spend its time").

    The advisor takes a kernel, evaluates a set of candidate improvements
    — compiler transformations it can actually apply (re-compile and
    re-measure on the simulator) and hardware or code changes it can only
    project at the bound level — and ranks them by the time they would
    save.  Each suggestion states how its projection was obtained.  A
    measured candidate is one P-process run; only [ideal] and [packed]
    recompile, the rest reuse the baseline's compile and layout. *)

type basis =
  | Measured  (** the change was applied and re-simulated *)
  | Bound_projection  (** recomputed MACS bound; actual gain ≤ this *)

type target = Compiler | Machine_hw | Application

type suggestion = {
  action : string;
  target : target;
  basis : basis;
  baseline_cpf : float;
  projected_cpf : float;
  gain : float;  (** fraction of baseline time saved, in [0;1) *)
}

val advise :
  ?machine:Machine.t ->
  ?threshold:float ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  Lfk.Kernel.t ->
  suggestion list
(** Suggestions with gain above [threshold] (default 0.01), sorted by
    gain, largest first.  The list is empty when the kernel already runs
    within [threshold] of every evaluated alternative.  [watchdog] is
    threaded into each P-process run (the baseline and every measured
    candidate), and into nothing else; a firing watchdog raises
    {!Macs_util.Macs_error.Error}, which deadline-bounded callers catch
    and degrade. *)

val report : ?machine:Machine.t -> Lfk.Kernel.t -> string
(** Human-readable ranked advice, one line per suggestion. *)

val target_name : target -> string
val basis_name : basis -> string
