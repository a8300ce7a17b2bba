open Convex_machine

(** Whole-application aggregation.

    The paper evaluates kernels one at a time and summarizes with a
    harmonic mean; a real tuning session cares about an {e application} —
    a weighted mix of loops.  This module aggregates the hierarchy over a
    mix: each component kernel is weighted by its invocation count, time
    shares follow from the measured CPL, and the advisor's per-kernel
    suggestions are re-ranked by absolute application time saved (a 30%
    win on a loop worth 2% of run time loses to a 5% win on a loop worth
    60%). *)

type component = {
  kernel : Lfk.Kernel.t;
  invocations : float;  (** relative execution count of the whole loop *)
  hierarchy : Hierarchy.t;
  time : float;  (** invocations x elements x CPL, arbitrary units *)
  share : float;  (** fraction of total application time *)
}

type t = {
  machine : Machine.t;
  components : component list;  (** sorted by share, largest first *)
  total_time : float;
  mflops : float;  (** aggregate: total flops / total time x clock *)
}

type weighted_suggestion = {
  kernel_name : string;
  suggestion : Advisor.suggestion;
  application_gain : float;
      (** fraction of whole-application time saved *)
}

val analyze :
  ?machine:Machine.t -> (Lfk.Kernel.t * float) list -> t
(** [(kernel, invocations)] pairs; raises [Invalid_argument] on an empty
    mix or nonpositive weights. *)

val advise : t -> weighted_suggestion list
(** Application-level advice gaining more than 0.005 of total time,
    sorted by [application_gain]. *)

val render : t -> string
(** Profile table plus the top application-level advice. *)
