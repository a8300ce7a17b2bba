module Fault = Convex_fault.Fault

(** Seeded exploration of the fault space, and its inverse: the
    delta-debugging rewrites that walk a failing plan back toward
    {!Fault.none}.

    Sampling draws from presets, randomized mutations of presets, and
    plans built from whole-cloth random clauses; half of all sampled
    plans are made transient by attaching an explicit activation window.
    Every choice comes from the caller's [Random.State.t] and lands on
    the spec grammar's value grid, so sampled plans survive the
    [to_spec]/[parse] round trip byte-for-byte — the property the
    campaign journal's resume guarantee is built on. *)

val transient : Random.State.t -> Fault.t -> Fault.t
(** Attach a random finite activation window. *)

val sample : Random.State.t -> index:int -> Fault.t
(** One campaign cell's plan.  The plan is named ["family~index"] where
    the family is the preset it grew from (["random"] for whole-cloth
    plans, with a ["/transient"] suffix when windowed) — the resilience
    matrix groups columns by family. *)

val family_of_name : string -> string
(** ["brownout/transient~17"] → ["brownout/transient"]. *)

val shrink_candidates : Fault.t -> Fault.t list
(** Simplifying rewrites for {!Convex_fuzz.Shrink.Make}, aggressive
    first: keep one clause, drop a clause, drop or shrink the activation
    window, zero the seed, then per-clause value reductions (minimum
    extra-busy, dead instead of finite outage, unit durations, factor
    2.0/1.5 steps).  Every rewrite moves to a fixed smaller target, so
    shrinking terminates without relying on the step bound. *)
