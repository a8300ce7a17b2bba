open Convex_machine

(** Multi-CPU throughput model (paper §2 and §4.2).

    The C-240 runs four CPUs against 32 shared banks; the paper's rules of
    thumb: four {e different} programs typically cost ~20% each to memory
    contention, while four processes of the {e same} executable fall into
    lockstep and cost only 5–10%.

    This module models a P-CPU run in two passes: each workload first runs
    alone to measure its memory-port pressure (accesses per cycle), then
    re-runs with cross-CPU contention sampled at a steal probability
    proportional to the other CPUs' combined pressure.  Lockstep runs
    (identical workloads) interleave their access patterns and see a
    reduced effective steal.  The proportionality constants are calibrated
    to land the paper's two rules of thumb for memory-saturated codes. *)

type cpu = {
  job : Job.t;
  flops_per_iteration : int;
  alone : Measure.t;  (** solo measurement (pass 1) *)
  contended : Measure.t;  (** with the other CPUs running (pass 2) *)
  pressure : float;  (** solo memory accesses per cycle *)
  slowdown : float;  (** contended CPL / solo CPL *)
}

type t = {
  lockstep : bool;
  cpus : cpu list;
  average_slowdown : float;
}

val run :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * int) list ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** [run workloads] simulates each [(job, flops)] on its own CPU.
    The run is [lockstep] iff all jobs share a name.
    [faults] applies to the contended pass only (the solo pass stays
    healthy so slowdowns are measured against a clean baseline); a
    port-steal plan additionally raises the effective steal probability.
    Simulation failures under the plan come back as [Error].  Raises
    [Invalid_argument] on an empty list or more than four workloads (the
    C-240 has four CPUs). *)

val run_exn :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * int) list ->
  t
(** Like {!run}; raises {!Macs_util.Macs_error.Error} on failure. *)

val replicate : Job.t * int -> int -> (Job.t * int) list
(** [replicate w p] is [p] copies of the workload — the
    same-executable-everywhere experiment. *)

val pp : Format.formatter -> t -> unit
