(** Instructions of the modeled Convex C-240 CPU.

    The instruction set covers what the paper's case study exercises: vector
    loads and stores through the single memory port, vector adds/subtracts/
    negations (add pipe), multiplies and divides (multiply pipe), the vector
    sum reduction, and the scalar instructions that appear in compiled inner
    loops (scalar loads/stores, loop-control ALU operations, the [mov s0,VL]
    strip-length move, and the closing conditional branch).

    A {e vector instruction} is any instruction that touches a vector
    register (paper §3.5); everything else is scalar and executes in the
    Address/Scalar Unit. *)

(** A memory operand.  Arrays are symbolic; element [i] of a strip whose
    base index is [k0] addresses word [offset + (k0 + i) * stride] of
    [array].  Scalar accesses use the operand as a single word at
    [offset + k0 * stride]. *)
type mem = { array : string; offset : int; stride : int }

(** Source operand of a vector arithmetic instruction: either a vector
    register or a scalar register broadcast across all elements. *)
type vsrc = Vr of Reg.v | Sr of Reg.s

type vbinop = Add | Sub | Mul | Div

type cmpop = Lt | Le | Eq | Ne

type t =
  | Vld of { dst : Reg.v; src : mem }
  | Vst of { src : Reg.v; dst : mem }
  | Vbin of { op : vbinop; dst : Reg.v; src1 : vsrc; src2 : vsrc }
  | Vneg of { dst : Reg.v; src : Reg.v }
  | Vsqrt of { dst : Reg.v; src : Reg.v }
      (** Square root, executed by the multiply pipe's iterative unit
          (paper §2). *)
  | Vcmp of { op : cmpop; src1 : Reg.v; src2 : vsrc }
      (** Element-wise comparison writing the (single) vector merge
          register; executes on the add pipe (§2: "logical functions"). *)
  | Vmerge of { dst : Reg.v; src_true : vsrc; src_false : vsrc }
      (** Per-element select under the vector merge register; a "vector
          edit", executed by the multiply pipe (§2). *)
  | Vgather of { dst : Reg.v; base : mem; index : Reg.v }
      (** Indexed load: element [e] reads
          [base.array\[base.offset + int_of_float index\[e\]\]]; the
          base's stride is ignored.  Runs on the load/store pipe with
          load timing. *)
  | Vscatter of { src : Reg.v; base : mem; index : Reg.v }
      (** Indexed store, the dual of {!Vgather}; store timing. *)
  | Vsum of { dst : Reg.s; src : Reg.v }
      (** Sum reduction of a vector register into a scalar register. *)
  | Sld of { dst : Reg.s; src : mem }
  | Sst of { src : Reg.s; dst : mem }
  | Sbin of { op : vbinop; dst : Reg.s; src1 : Reg.s; src2 : Reg.s }
      (** Scalar floating-point ALU operation with real register
          dependences; used for scalar accumulation of reduction partials
          and for outer-loop scalar arithmetic. *)
  | Sop of { name : string }
      (** Opaque one-cycle scalar ALU operation (address increments,
          compares); carries a mnemonic for listings only. *)
  | Smovvl  (** [mov s0,VL]: sets the vector length for the strip. *)
  | Sbranch  (** Conditional branch closing the strip-mined loop. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

(** {1 Classification} *)

(** Timing class of a vector instruction; keys into the machine's X/Y/Z/B
    table (paper Table 1). *)
type vclass =
  | Cld
  | Cst
  | Cadd
  | Csub
  | Cmul
  | Cdiv
  | Csqrt
  | Csum
  | Cneg
  | Ccmp
  | Cmerge

val pp_vclass : Format.formatter -> vclass -> unit
val show_vclass : vclass -> string
val equal_vclass : vclass -> vclass -> bool
val all_vclasses : vclass list

val vclass_of : t -> vclass option
(** [None] for scalar instructions. *)

val is_vector : t -> bool
(** True iff the instruction accesses at least one vector register. *)

val is_scalar : t -> bool

val is_vector_memory : t -> bool
(** Vector load or store. *)

val is_scalar_memory : t -> bool
(** Scalar load or store — these compete for the same single memory port
    and terminate chimes that contain vector memory accesses. *)

val is_memory : t -> bool

val is_vector_fp : t -> bool
(** Vector floating-point operation: arithmetic, negation, or reduction.
    These are the operations removed to form the A-process. *)

val reads_v : t -> Reg.v list
(** Vector registers read, in operand order (duplicates preserved: an
    instruction reading [v2] twice performs two reads of its pair). *)

val writes_v : t -> Reg.v list

val reads_s : t -> Reg.s list
val writes_s : t -> Reg.s list

val mem_ref : t -> mem option

val writes_merge : t -> bool
(** Writes the vector merge register ([Vcmp]). *)

val reads_merge : t -> bool
(** Reads the vector merge register ([Vmerge]). *)

val flop_count : t -> int
(** Floating-point arithmetic operations contributed per element: 1 for
    vector add/sub/mul/div and sum, 0 otherwise (negation is not counted
    as a flop, matching the paper's f-counts). *)
