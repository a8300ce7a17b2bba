open Convex_machine

(** The roofline view of the MA bound.

    MACS's MA level is an ancestor of the roofline model: both bound a
    kernel by the slower of a compute roof and a memory roof.  For the
    C-240 the compute roof is 2 flops/cycle (add and multiply pipes) and
    the memory roof is one 8-byte word per cycle, so in roofline terms

      roof(AI) = min(peak_mflops, AI * bandwidth)

    with arithmetic intensity AI = flops / bytes moved.  The MA bound is
    the same construction with one refinement: it knows the add/multiply
    split, so its compute roof is [max(f_a, f_m)] per iteration rather
    than [flops / 2].  The two coincide exactly when adds and multiplies
    balance (LFK7), and MA is strictly tighter otherwise (LFK10's pure-add
    chain: roofline says 50 MFLOPS of compute headroom, MA correctly says
    the add pipe alone limits it).

    This module computes both and exposes the comparison. *)

type t = {
  flops_per_iteration : int;
  bytes_per_iteration : float;  (** MA traffic: 8 bytes x (loads + stores) *)
  arithmetic_intensity : float;  (** flops per byte *)
  peak_mflops : float;  (** compute roof: both FP pipes at the clock *)
  bandwidth_mbs : float;  (** memory roof: one word per cycle *)
  roofline_mflops : float;  (** min(peak, AI * bandwidth) *)
  ma_mflops : float;  (** the MA bound in MFLOPS *)
  memory_bound : bool;  (** AI below the ridge point *)
}

val ridge_intensity : machine:Machine.t -> float
(** The AI at which the two roofs meet (0.25 flops/byte on the C-240). *)

val of_kernel : ?machine:Machine.t -> Lfk.Kernel.t -> t
(** From the kernel's MA workload. *)

val ma_refines_roofline : t -> bool
(** [ma_mflops <= roofline_mflops] (up to rounding): the MA bound never
    exceeds the roofline bound because it models the pipe split. *)

val render : (string * t) list -> string
(** A small table of labeled rooflines: AI, roofline bound, MA bound, and
    which roof binds, under the C-240's roofs. *)
