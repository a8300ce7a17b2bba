open Convex_machine
open Convex_memsys

(** The tiered stepper's analytical fast path.

    The reference cycle stepper ({!Sim.run} with [~fidelity:Cycle])
    advances a vector instruction one element at a time, spinning the
    bank model for every memory access.  Most of that work is
    predictable — the MACS observation — so the tiered stepper, the
    default and only production path, partitions each strip into {e analytic regions}:
    element streams whose schedule is provably the closed form
    [t0 + e * z] (plus exactly-computable refresh slips), advanced in one
    leap, with the cycle stepper retained for everything unprovable
    (bank-conflicting strides, active fault windows, gathers/scatters,
    fractional rates, chained producers whose curves cross the closed
    form).

    A leap is taken only after discharging the proof obligations listed
    at {!try_leap}; when any fails the instruction falls back to cycle
    stepping, so conservatism costs speed, never fidelity.  The two paths
    are bit-identical — same cycle counts, same per-bank state, same
    stall counters, same trace events, same access logs — which the
    equivalence suite ([test/test_vpsim.ml]) and the fuzz oracle stack's
    [fidelity-diff] rung enforce across the generator distribution and
    every fault family.  DESIGN §14 derives the obligations. *)

type fidelity =
  | Cycle
      (** the reference stepper: step every element through the bank
          model.  Only the equivalence tests, the fuzz [fidelity-diff]
          rung and the benches select it. *)
  | Tiered
      (** the default and only production stepper: leap analytic regions
          in closed form, cycle-step the seams — bit-identical to
          [Cycle], several times faster on healthy streams *)

val spin_check_interval : int
(** The cycle stepper polls its watchdog every this-many failed access
    attempts; a leap never absorbs a wait that long, so watchdog
    observations agree between fidelities. *)

type deps
(** The dependences of one instruction's element stream: element [e] may
    not enter before [curve.(min e (n-1)) +. lift] of each.  A buffer the
    caller clears and refills for every instruction, so building it
    allocates nothing. *)

val make_deps : unit -> deps
val clear_deps : deps -> unit

val add_dep : deps -> float array -> float -> unit
(** [add_dep d curve lift]: chain dependences lift by the producer's
    result latency, WAW/WAR hazards by one cycle. *)

val ready_at : deps -> int -> float
(** The latest cycle any dependence allows element [e] to enter, [0.0]
    when there is none. *)

type stream =
  | Compute  (** no memory traffic *)
  | Affine of { word0 : int; wstride : int }
      (** one word per element at [word0 + e * wstride] *)
  | Opaque  (** data-dependent addressing: never leapt *)

val try_leap :
  memory:Memory.t ->
  mem_params:Mem_params.t ->
  faults:Convex_fault.Fault.t ->
  guard:int ->
  watchdog_armed:bool ->
  t0:float ->
  vl:int ->
  z:float ->
  deps:deps ->
  stream ->
  float array option
(** Attempt to advance a whole element stream analytically.  Returns
    [Some entries] — each element's entry cycle, with all memory side
    effects applied — exactly when the cycle stepper would have produced
    the same array with zero conflict/port/fault stalls and bounded
    refresh waits; [None] (state untouched) otherwise.  Obligations:
    [t0] and [z] integer-valued floats with [z >= 1]; the fault plan
    {!Convex_fault.Fault.quiescent} over the stream's
    {!Mem_params.leap_horizon}; every dependence curve at or below the
    closed form; and for [Affine] streams the bank/port/refresh admission
    of {!Memory.admit_stream} under a slip bound of [guard] (tightened to
    one watchdog poll interval when [watchdog_armed]).  Every call counts
    in {!coverage}. *)

(** {1 Coverage}

    Process-wide counters of what {!try_leap} leapt and why it refused,
    updated atomically so runs on several domains add up.  They describe
    the process, not a run: nothing in {!Sim.stats}, a reply, a journal
    or a cache entry reads them. *)

type refusal =
  | Opaque_stream  (** gather/scatter addressing *)
  | Fault_window  (** the plan is not quiescent over the stream *)
  | Non_integer_z  (** a memory stream's rate is not an exact integer *)
  | Dependence  (** a dependence curve crosses the closed form *)
  | Below_port_mark  (** see {!Memory.Below_port_mark} *)
  | Over_slip  (** an element would wait past the slip bound *)
  | Contention  (** a contention model could steal port cycles *)

val refusal_name : refusal -> string

type coverage = {
  leapt : int;  (** instructions leapt *)
  leapt_elements : int;
  stepped : int;  (** instructions refused, hence cycle-stepped *)
  stepped_elements : int;
  refused : (refusal * int) list;  (** refusals by reason, every reason *)
}

val coverage : unit -> coverage
val reset_coverage : unit -> unit
