(** Multi-process memory contention model.

    The paper measures the LFKs both on an otherwise-idle machine and while
    an uncontrolled workload (load average 5.1) runs on the other three
    CPUs.  It reports that contention stretches the effective memory access
    time from the 40 ns peak to 56–64 ns, with part of the loss masked by
    non-memory work.

    We model contention as the crossbar port being stolen from our CPU on a
    given cycle with some probability, sampled from a deterministic
    splitmix-style PRNG so simulations are reproducible.  The mapping from
    load average to steal probability is calibrated so that a saturated
    access stream observes the paper's 1.4–1.6 cycles per access. *)

type t

val none : t
(** No contention: the port is always available. *)

val is_none : t -> bool
(** True when the model can never steal a cycle (zero steal probability,
    any seed) — the admission test {!Convex_vpsim.Fastpath} uses before
    leaping over an access stream. *)

val of_steal_probability : ?seed:int -> float -> t
(** Probability in [0;1) that a cycle's port slot is taken by another CPU. *)

val of_load_average : float -> t
(** Heuristic mapping: load ≤ 1 gives no contention; the paper's load of
    5.1 maps to a steal probability near 1/3 (one access per ~1.5 cycles on
    a saturated stream). *)

val steal_probability : t -> float

val sampler : t -> int -> bool
(** [sampler t cycle] decides whether the port is stolen on [cycle].  Pure:
    the same [t] and [cycle] always give the same answer, so repeated
    queries within a cycle agree. *)

val pp : Format.formatter -> t -> unit
