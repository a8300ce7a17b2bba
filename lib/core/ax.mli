open Convex_vpsim

(** A/X performance measurement codes (paper §3.6).

    The A-process is the application with all vector floating-point
    operations removed — it exercises only the access (memory) side.  The
    X-process removes all vector memory operations — execute-only.  Scalar
    instructions are kept in both, so control flow (and the scalar
    overhead the inner-loop models ignore) is unchanged.  The numerical
    outputs of these codes are nonsense; only their run times matter.

    The paper's X-process generator primes registers with safe nonzero
    values to avoid floating-point exceptions; our simulator does not trap,
    but {!prime_registers} reproduces the priming for completeness. *)

val a_process : Job.t -> Job.t
(** Remove vector FP operations everywhere (body, prologues, epilogues).
    Raises [Invalid_argument] if the transform would empty the body. *)

val x_process : Job.t -> Job.t
(** Remove vector memory operations everywhere. *)

val prime_registers : Job.t -> (int * float) list
(** Safe initial scalar-register values for running an X-process: each
    live-in scalar register receives a large, mutually prime, nonzero
    value (the paper's recipe). *)
