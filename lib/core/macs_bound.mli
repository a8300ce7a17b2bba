open Convex_isa
open Convex_machine

(** The MACS bound (paper §3.4): steady-state cycles per loop iteration of
    a specific compiled schedule on a specific machine.

    The loop body is partitioned into chimes; a chime preceded by at least
    one chime costs [Z_max * VL + sum B] cycles (eq. 13), and the memory
    refresh multiplies every maximal cyclic run of four or more successive
    memory chimes by 1.02 (§3.2, §3.4).

    Reductions and divisions involve "numerous special cases" the paper
    does not spell out; the rules implemented here (validated against the
    paper's Tables 3–5) are:

    - a long-Z instruction chained into a chime that also contains other
      work keeps the chime at [Z_max * VL + sum B] only if some other
      instruction in the loop uses the same pipe (a resource conflict,
      Table 1's footnote); with no conflict the drain is masked and the
      chime costs [VL + sum B];
    - a chime consisting only of long-Z instructions contributes just its
      excess [(Z_max - 1) * VL + sum B], its base VL overlapping
      neighbouring chimes; such masked chimes are transparent to the
      refresh-run computation;
    - a charged drain occupies only the long operation's own pipe, so the
      chimes that follow without touching that pipe (wrapping past the
      loop end: the units persist across strips) execute underneath it
      (or tailgate the chime that does wait — their own pipe gates were
      satisfied while the drain ran): their cost is credited back against
      the outstanding drain capacity ([overlap_credit]).  Chimes that use
      the drained pipe are charged in full, their wait being exactly what
      the drain charge covers.  Without the credit the bound
      double-counts the overlapped chimes and can exceed the simulator
      (found by fuzzing: sqrt chimes followed by independent loads,
      merges, and chained stores). *)

type chime_cost = {
  chime : Chime.t;
  cycles : float;  (** before refresh adjustment *)
  masked : bool;  (** excess-only contribution *)
  refresh : bool;  (** belongs to a refresh-penalised run *)
  overlap_credit : float;
      (** cycles (after refresh adjustment) hidden under an earlier
          chime's long-operation drain; subtracted from the total *)
}

type result = {
  cycles : float;  (** per loop iteration of [vl] elements, after refresh *)
  cpl : float;  (** [cycles / vl] *)
  vl : int;
  chimes : chime_cost list;
}

val memory_paced : machine:Machine.t -> Chime.t list -> bool
(** Domain predicate for comparing chime-serialized bounds against the
    simulator: true when every chime either contains a vector memory
    operation or consists only of long-Z operations (a masked drain,
    which charges no VL base).  On such loops each chime occupies the
    single memory pipe for a full VL, so chime serialization is a true
    lower bound on machine time — the regime the paper validates MACS
    against.  A loop with a memoryless Z=1 chime can beat the serialized
    bound: chaining streams that chime underneath its neighbours (found
    by fuzzing: two negations in a row between loads run 4 chimes of
    model time in 3 chimes of machine time). *)

val compute : machine:Machine.t -> Instr.t list -> result
(** Bound for one iteration of the given loop body at the machine's
    maximum vector length.  A body with no vector instructions yields a
    zero bound. *)

val f_only : machine:Machine.t -> Instr.t list -> result
(** [t_MACS^f]: the bound recomputed with all vector memory operations
    deleted (paper §3.4). *)

val m_only : machine:Machine.t -> Instr.t list -> result
(** [t_MACS^m]: all vector floating-point operations deleted. *)

val pp : Format.formatter -> result -> unit
