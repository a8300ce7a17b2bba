open Convex_isa
open Convex_machine
open Convex_memsys

(** Cycle-level simulator of one C-240 CPU running a vectorized loop.

    The simulator stands in for the real machine: it produces the
    "measured" times (t_p, t_a, t_x, calibration loops) of the paper's
    methodology.  It models what the MACS bound models — chimes emerge from
    pipe structural hazards and chaining — {e plus} the effects the bound
    deliberately idealizes away:

    - pipeline start-up ([X] issue overhead and [Y] fill latency) exposed
      on every strip, which dominates short-vector kernels (LFK2/4/6);
    - tailgate bubbles ([B]) between successive instructions in a pipe and
      at every chaining hook-up, with back-pressure propagated to the
      ultimate stream source (the paper's "chime takes VL + ΣB" behaviour);
    - the scalar unit executing loop control and outer-loop code in
      program order, with hardware interlocks against vector results
      (reduction → scalar accumulation stalls);
    - scalar and vector memory operations competing for the single port;
    - bank conflicts for nonunit strides and the periodic memory refresh,
      both simulated by the {!Convex_memsys} bank model;
    - optional cross-CPU port contention for the multi-process experiment.

    Cycles are represented as floats so that the fractional per-element
    rates of Table 1 (reduction Z = 1.35, divide Z = 4) compose exactly. *)

type event = {
  instr : Instr.t;
  strip : int;  (** strip sequence number, counting from 0 *)
  issue : float;  (** cycle at which issue of this instruction began *)
  start : float;  (** first element enters the pipe / scalar executes *)
  first_result : float;
  completion : float;
}

type stats = {
  cycles : float;  (** completion time of the whole job *)
  elements : int;  (** total inner-loop iterations executed *)
  instructions : int;
  strips : int;
  mem_accesses : int;
  bank_conflict_stalls : int;
  refresh_stalls : int;
  port_stalls : int;
  fault_stalls : int;
      (** failed access attempts due to an injected bank fault *)
  pipe_busy : (string * float) list;
      (** measured cycles each function pipe spent streaming elements,
          keyed by {!Convex_machine.Pipe.name} (summed over unit
          instances) *)
}

type result = { stats : stats; events : event list }
(** [events] is empty unless the run was traced, and lists instructions in
    issue order. *)

val default_guard : int
(** Default memory-progress guard: spin cycles allowed per access before
    the run is declared livelocked (currently 1,000,000). *)

val run :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?contention:Contention.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?access_log:(int * int) list ref ->
  ?trace:bool ->
  ?fidelity:Fastpath.fidelity ->
  Job.t ->
  (result, Macs_util.Macs_error.t) Stdlib.result
(** Simulate a job to completion.  [machine] defaults to {!Machine.c240};
    [layout] defaults to [Layout.build] over the job's arrays;
    [contention] to none; [faults] to {!Convex_fault.Fault.none}; [trace]
    to [false]; [fidelity] to {!Fastpath.Tiered}, which advances
    provably-analytic regions in closed-form leaps ({!Fastpath.try_leap})
    and is bit-identical to cycle stepping — results, stall counters,
    traces and access logs — at a multiple of the speed on healthy
    streams.  [~fidelity:Fastpath.Cycle] selects the reference stepper,
    which only the equivalence tests, the fuzz [fidelity-diff] rung and
    the benches ask for.  Returns [Error (Livelock _)] when an access makes no
    progress for [guard] consecutive cycles on a healthy machine, and
    [Error (Stall_out _)] when the same guard trips under an active fault
    plan (e.g. a stuck bank); it never raises on any fault plan.

    [watchdog] is the supervised-run progress hook: it is called with the
    current simulated cycle before every instruction issues and
    periodically inside a stalled memory access, and returning [Some err]
    cancels the run immediately with [Error err] (conventionally a
    [Budget_exceeded] built by the harness from its wall-clock/cycle
    budgets — see [Convex_harness.Budget]).  A cancelled run performs no
    further stepping, so a livelocked or over-budget simulation stops at
    the callback's word rather than spinning until [guard] trips. *)

val run_exn :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?contention:Contention.t ->
  ?faults:Convex_fault.Fault.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?access_log:(int * int) list ref ->
  ?trace:bool ->
  ?fidelity:Fastpath.fidelity ->
  Job.t ->
  result
(** Like {!run} at the default [guard]; raises
    {!Macs_util.Macs_error.Error} on failure.  The convenience for
    contexts (calibration, paper tables on the healthy machine) where a
    livelock is a programming error, not an outcome. *)

val cpl : result -> float
(** Cycles per (original scalar) inner-loop iteration:
    [stats.cycles / stats.elements]. *)

val cpf : result -> flops_per_iteration:int -> float
(** [cpl /. flops_per_iteration]. *)

val pp_event : Format.formatter -> event -> unit

val scalar_load_latency : float
(** Result latency of a scalar load (cycles after its port access). *)

val scalar_fp_latency : float
(** Result latency of a scalar FP ALU operation. *)
