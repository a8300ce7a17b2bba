(** Greedy deterministic shrinking of failing fuzz cases.

    Given a predicate ("does the check that failed on the original still
    fail?"), repeatedly tries simplifying rewrites in a fixed order —
    aggressive first (keep one statement, drop a statement, collapse to
    one segment), then fine-grained (replace an expression node by one
    of its children, unit strides, zero offsets, unit scalar values,
    shorter segments, a trivial accumulator, pruned declarations) — and
    accepts the first rewrite that still validates and still fails.
    Fixpoint: stops when no rewrite is accepted (or after [max_steps]
    accepted steps, a safety bound).

    Everything is deterministic: same kernel + same predicate → same
    shrunk kernel, which is what makes corpus entries reproducible. *)

type 'a result = {
  value : 'a;  (** the shrunk case *)
  steps : int;  (** rewrites accepted *)
  tried : int;  (** candidates evaluated (predicate calls) *)
}

(** What the greedy strategy needs from a shrinkable case type.  The
    strategy itself is case-agnostic; {!kernel} and {!program} below are
    instances, and the chaos campaign instantiates it over fault plans. *)
module type Case = sig
  type t

  val equal : t -> t -> bool
  (** Guards against no-op rewrites: a candidate equal to the current
      case is skipped without consulting the predicate. *)

  val valid : t -> bool
  (** Candidates failing validity are discarded before the predicate
      runs, so the predicate only ever sees well-formed cases. *)

  val candidates : t -> t list
  (** Simplifying rewrites of a case, aggressive first; the first valid
      candidate that still fails is accepted and the enumeration
      restarts from it. *)
end

module Make (C : Case) : sig
  val shrink :
    ?max_steps:int ->
    ?jobs:int ->
    still_fails:(C.t -> bool) ->
    C.t ->
    C.t result
  (** [max_steps] (default 200) bounds accepted rewrites; the run is a
      fixpoint otherwise — it stops when no valid candidate still
      fails.  [jobs] (default 1) evaluates candidates in
      executor-parallel chunks while accepting the lowest-indexed
      failing candidate and counting [tried] exactly as the sequential
      scan would, so the result — value, steps and tried — is identical
      at every [jobs]. *)
end

val kernel :
  ?jobs:int ->
  still_fails:(Lfk.Kernel.t -> bool) ->
  Lfk.Kernel.t ->
  Lfk.Kernel.t result
(** At most 200 accepted rewrites.  Candidates failing
    {!Lfk.Kernel.validate} are discarded before the predicate runs, so
    the predicate only ever sees well-formed kernels. *)

val program :
  ?jobs:int ->
  still_fails:(Convex_isa.Program.t -> bool) ->
  Convex_isa.Program.t ->
  Convex_isa.Program.t result
(** Instruction-list shrinking for assembly round-trip failures:
    keep-one and drop-one rewrites over the body, at most 200 accepted. *)
