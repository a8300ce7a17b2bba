(** Loop intermediate representation: the "high-level application code" (A)
    of the MACS model.

    A kernel's inner loop is a list of statements over a loop index [k];
    array references are affine in [k] ([element = scale*k + offset]).
    Named scalars are loop-invariant; [Temp] names values bound by [Let]
    earlier in the same iteration (the compiler keeps them in registers).
    At most one [Reduce] accumulator per kernel, accumulating a sum of the
    right-hand side over the loop. *)

type cmp = CLt | CLe | CEq | CNe

type ref_ = { array : string; scale : int; offset : int }

val pp_ref_ : Format.formatter -> ref_ -> unit
val equal_ref_ : ref_ -> ref_ -> bool

type expr =
  | Load of ref_
  | Scalar of string
  | Temp of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr
  | Sqrt of expr
  | Gather of { array : string; offset : int; index : expr }
      (** [array(offset + int(index_k))]: a data-dependent (indexed)
          load.  Never coalescible; compiled to {!Convex_isa.Instr.Vgather}. *)
  | Select of { op : cmp; a : expr; b : expr; if_true : expr; if_false : expr }
      (** [if a OP b then if_true else if_false], element-wise — compiled
          to a compare into the vector merge register followed by a
          merge (vector edit). *)

type stmt =
  | Let of string * expr
  | Store of ref_ * expr
  | Scatter of { array : string; offset : int; index : expr; value : expr }
      (** [array(offset + int(index_k)) := value_k]: a data-dependent
          (indexed) store. *)
  | Reduce of { neg : bool; rhs : expr }
      (** [acc := acc + sum_k rhs] ([acc := acc - ...] when [neg]); the
          accumulator itself is declared by the kernel. *)

val show_stmt : stmt -> string

(** {1 Static analysis: the MA workload counts (paper §3.1)} *)

val op_counts : stmt list -> int * int
(** [(f_a, f_m)]: floating-point additions (adds, subtracts, and the
    reduce accumulation) and multiplications (multiplies, divides, and
    square roots — the multiply pipe's work) per inner-loop iteration,
    counted from the high-level code. *)

val flops : stmt list -> int
(** [f_a + f_m]. *)

val load_refs : stmt list -> ref_ list
(** Distinct array references read, in first-occurrence order (textually
    identical references count once: even the V6.1-style compiler keeps a
    value loaded twice in the same iteration in a register). *)

val store_refs : stmt list -> ref_ list

val ma_load_count : stmt list -> int
(** Loads per iteration under perfect index analysis: references to the
    same array with the same scale and congruent offsets (offsets equal
    modulo the scale) form one stream whose elements are reused across
    iterations, costing a single load per iteration.  This is the paper's
    idealisation that the C-240 compiler misses ("vector elements reused in
    the next iteration are shifted by the loop index increment"). *)

val ma_store_count : stmt list -> int

val indexed_arrays : stmt list -> string list
(** Arrays accessed through gathers or scatters, sorted and distinct. *)

val select_count : stmt list -> int
(** Number of [Select] constructs: each costs one add-pipe comparison and
    one multiply-pipe merge, which the MA bound must charge even though
    neither is a flop. *)

val scalars : stmt list -> string list
(** Distinct scalar names referenced, in first-occurrence order. *)

val temps : stmt list -> string list

val validate : stmt list -> (unit, string) result
(** Checks well-formedness: every [Temp] is bound by an earlier [Let], no
    temp is bound twice, at most one [Reduce], scales of load references
    are nonzero, stores have nonzero scale. *)
