open Convex_machine
open Convex_memsys

(** High-level measurement wrapper: runs a job on the simulator and reports
    the paper's units. *)

type t = {
  cpl : float;  (** cycles per original inner-loop iteration *)
  cpf : float;  (** cycles per floating-point operation *)
  mflops : float;
  cycles : float;
  stats : Sim.stats;
}

val run :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?contention:Contention.t ->
  ?faults:Convex_fault.Fault.t ->
  ?guard:int ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Fastpath.fidelity ->
  flops_per_iteration:int ->
  Job.t ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** Simulate and convert to the paper's units.  [fidelity] selects the
    stepper exactly as in {!Sim.run} (default [Tiered]; [Cycle] is the
    reference); both produce bit-identical measurements.  Simulation failures
    (livelock, fault-induced stall-out, watchdog cancellation) come back
    as [Error].  [watchdog] is threaded to {!Sim.run} unchanged.  Raises
    [Invalid_argument] if [flops_per_iteration <= 0] — a caller bug, not
    a runtime outcome. *)

val run_exn :
  ?machine:Machine.t ->
  ?layout:Layout.t ->
  ?contention:Contention.t ->
  ?faults:Convex_fault.Fault.t ->
  ?watchdog:(cycle:float -> Macs_util.Macs_error.t option) ->
  ?fidelity:Fastpath.fidelity ->
  flops_per_iteration:int ->
  Job.t ->
  t
(** Like {!run} at the default [guard]; raises
    {!Macs_util.Macs_error.Error} on failure. *)

val pp : Format.formatter -> t -> unit
