open Convex_isa

(** Vector-instruction timing parameters (paper Table 1, VL = 128).

    A single independent vector instruction takes [X + Y + Z * VL] cycles
    (eq. 5): [X] cycles of initial overhead, [Y] further cycles until the
    first element result is available, and [Z] additional cycles per
    element.  [B] is the empirically observed tailgate {e bubble} between
    successive instructions in a pipe (paper §3.3); a chime preceded by at
    least one chime takes [Z * VL + sum of B] cycles (eq. 13). *)

type params = { x : int; y : int; z : float; b : int }

type table
(** Timing parameters for every vector instruction class. *)

val get : table -> Instr.vclass -> params

val make : (Instr.vclass -> params) -> table
(** Tabulate a function over all classes. *)

val map : (Instr.vclass -> params -> params) -> table -> table

val c240 : table
(** The Convex-specified and calibration-confirmed values of Table 1:
    loads X=2 Y=10 Z=1 B=2; stores X=2 Y=10 Z=1 B=4; add/sub/neg X=2 Y=10
    Z=1 B=1; multiply X=2 Y=12 Z=1 B=1; divide X=2 Y=72 Z=4 B=21;
    sum reduction X=2 Y=10 Z=1.35 B=0; square root assumed equal to
    divide (no published row; same iterative unit). *)

val zero_bubbles : table -> table
(** Ablation helper: the same table with every [B] forced to 0. *)

val equal : table -> table -> bool
val pp : Format.formatter -> table -> unit
