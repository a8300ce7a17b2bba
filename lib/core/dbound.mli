open Convex_isa
open Convex_machine

(** The MACSD extension: binding the Data decomposition.

    Paper §3.1: "The peak memory rate could be reduced for nonunit stride
    accesses by defining a fifth degree of freedom, D, after M, A, C and S
    to bind the allocation (decomposition) of the data structures in
    memory."  The paper stops there; this module carries the idea out.

    With [banks] interleaved memory banks of cycle time [busy], a stream
    of stride [s] touches [banks / gcd(s, banks)] distinct banks and
    revisits each after that many accesses.  When the revisit period is
    shorter than the bank cycle time the stream throttles, so the
    sustained rate is

      [rate(s) = min(1, (banks / gcd(s, banks)) / busy)]

    accesses per cycle — 1 for odd strides, 1/2 for stride 16, 1/8 for
    stride 32 on the C-240.  The MACSD memory bound weighs each memory
    operation by [1 / rate(stride)]; FP bounds are unchanged. *)

val gather_rate : machine:Machine.t -> float
(** Sustained rate of a saturated data-dependent (gather/scatter) stream
    with uniformly distributed addresses.  A blocked access retries its
    (busy) bank, so the rate solves a*T² + T = 1 with
    a = busy*(busy+1)/(2*banks) — 0.598 on the C-240, confirmed by the
    bank simulator within 1%.  Note the weight models a {e saturated}
    stream: in loops where other streams dilute the gather's access
    density, the effective rate is higher, so the MACD memory component
    is an upper estimate of gather cost rather than a strict time
    bound. *)

val stream_rate : machine:Machine.t -> stride:int -> float
(** Sustained accesses per cycle of an isolated stream of the given
    stride; [stride = 0] (a scalar reference) counts as unit rate.
    Always in (0; 1]. *)

type t = {
  t_m_d : float;  (** stride-weighted memory bound, CPL *)
  t_f : int;  (** unchanged FP bound, CPL *)
  t_macd : float;  (** [max t_m_d (float t_f)] *)
  worst_stride : int;  (** stride with the lowest rate among the streams *)
}

val compute : machine:Machine.t -> Instr.t list -> t
(** The MACD bound of a compiled loop body. *)

val pp : Format.formatter -> t -> unit
