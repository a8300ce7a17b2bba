open Convex_isa
open Convex_vpsim

(** The vectorizing compiler: lowers a kernel's loop IR to Convex vector
    assembly, standing in for the Convex `fc` Fortran compiler V6.1.

    The pipeline per kernel: scalar-register allocation (loop-invariant
    scalars to s-registers, overflow spilled to a constant pool reloaded
    inside the loop — the paper's LFK8 chime-splitting scalar loads),
    depth-first expression lowering with on-the-fly vector-register
    allocation over the eight v-registers, reduction lowering (vector sum
    into a scalar partial accumulated by a scalar add, re-initialised and
    stored per segment), and strip-mined loop assembly ([smovvl] header,
    loop-control tail). *)

exception Register_pressure of string
(** Raised when an expression needs more than eight live vector registers
    even after dropping rematerialisable loads. *)

type t = {
  kernel : Lfk.Kernel.t;
  opt : Opt_level.t;
  mode : Job.mode;
      (** [Vector] when the loop vectorizes; [Scalar] when a loop-carried
          dependence forces the C-240's scalar mode *)
  verdict : Vectorizer.verdict;
  program : Program.t;  (** one strip of the inner loop, in schedule order *)
  job : Job.t;  (** the runnable strip-mined loop nest *)
  sregs : (int * float) list;  (** initial scalar register file *)
  flops_per_iteration : int;
  scalar_map : (string * int) list;  (** scalar name → s-register index *)
  spilled_scalars : string list;
      (** scalars kept in the [SCAL] constant pool, reloaded per iteration *)
}

val compile : ?opt:Opt_level.t -> ?force_scalar:bool -> Lfk.Kernel.t -> t
(** Compile a kernel ([opt] defaults to {!Opt_level.v61}).  Kernels with a
    loop-carried flow dependence (see {!Vectorizer}) are compiled to
    scalar code; [force_scalar] compiles a vectorizable kernel to scalar
    code anyway (the vectorization-speedup ablation).  Raises
    [Invalid_argument] if the kernel fails {!Lfk.Kernel.validate}. *)

val scalar_pool : t -> (string * int) option
(** Name and size of the [spilled_scalars] constant pool, one word per
    scalar; [None] when nothing spilled. *)

val initial_store : t -> Store.t
(** The kernel's initial data plus the compiler's constant pool. *)

val initial_sregs : t -> (int * float) list

val run_interp : t -> Store.t
(** Convenience: build the initial store, interpret the job, return the
    mutated store.  Raises [Invalid_argument] for non-functional
    optimization levels (see {!Opt_level.functional}) and
    [Macs_util.Macs_error.Error (Interp_fault _)] if the compiled code
    faults — compiler output over its own kernel's storage never should. *)

val listing : t -> string
(** Assembly listing of the strip body. *)
