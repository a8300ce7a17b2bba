(** Register files of the Convex C-240 CPU.

    Each CPU has eight 128-element vector registers [v0]..[v7] in the Vector
    Processor, and scalar ([s0]..[s7]) plus address ([a0]..[a7]) registers in
    the Address/Scalar Unit.  Vector registers are organised in four
    {e register pairs} — \{v0,v4\}, \{v1,v5\}, \{v2,v6\}, \{v3,v7\} — and the
    hardware permits at most two reads and one write to each pair during a
    single chime (paper §3.3). *)

type v
(** A vector register. *)

type s
(** A scalar register. *)

type a
(** An address register. *)

val vector_count : int
(** Number of vector registers (8). *)

val scalar_count : int

val v : int -> v
(** [v i] is vector register [i]; raises [Invalid_argument] unless
    [0 <= i < vector_count]. *)

val s : int -> s
val a : int -> a

val v_index : v -> int
val s_index : s -> int
val a_index : a -> int

val pair_id : v -> int
(** Register-pair identifier in [0;3]: [v0]/[v4] map to 0, [v1]/[v5] to 1,
    and so on. *)

val pair_count : int
(** Number of vector register pairs (4). *)

val all_v : v list
(** [v0; ...; v7] in index order. *)

(** Printers and equalities called by [Instr]'s derived [show]/[equal]. *)

val pp_v : Format.formatter -> v -> unit
val pp_s : Format.formatter -> s -> unit
val equal_v : v -> v -> bool
val equal_s : s -> s -> bool
val show_v : v -> string
val show_s : s -> string
val show_a : a -> string
