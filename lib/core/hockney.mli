open Convex_machine

(** Hockney's (r∞, n½) characterization.

    The standard 1980s description of a vector machine's behaviour on a
    loop: time for an n-element run is modeled as t(n) ≈ t₀ + n/r, giving
    an asymptotic rate r∞ and the half-performance length n½ = t₀·r∞ —
    the vector length at which half the asymptotic rate is reached.  It
    complements the MACS hierarchy: r∞ should converge to the MACS
    bound's steady-state rate, while n½ quantifies the start-up the MACS
    model deliberately ignores (and which dominates the short-vector
    kernels LFK2/4/6).

    The fit runs the kernel's inner loop at several lengths within one
    strip (n ≤ VL, so no strip-mining discontinuity) on the simulator. *)

type t = {
  r_inf_mflops : float;  (** asymptotic rate from the fit *)
  n_half : float;  (** half-performance vector length *)
  startup_cycles : float;  (** t₀ of the fit *)
  cycles_per_element : float;  (** 1/r in cycles *)
  samples : (int * float) list;  (** (n, total cycles) measured *)
}

val measure : ?machine:Machine.t -> Lfk.Kernel.t -> t
(** Fit over the lengths 8, 16, 24, …, 128, which must all be in
    [1; max VL]: raises [Invalid_argument] on a machine whose max VL is
    below 128.  The kernel's first segment supplies the address
    shifts; multi-segment structure is ignored for the sweep (this is a
    single-inner-loop characterization). *)

val macs_rate_mflops : Lfk.Kernel.t -> float
(** The MACS bound's steady-state rate on the C-240, for comparison with
    [r_inf]. *)

val render : Lfk.Kernel.t list -> string
(** Table of r∞ / n½ per kernel against the MACS steady-state rate, on
    the C-240. *)
