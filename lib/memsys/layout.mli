open Convex_isa

(** Assignment of symbolic arrays to word addresses.

    The simulator needs concrete addresses to model bank conflicts, so each
    array named by a program is placed at a base word address.  Bases are
    assigned sequentially with one word of padding, so distinct
    unit-stride arrays start in different banks, which is the benign
    layout the paper assumes ("most memory accesses are unit stride"). *)

type t

val build : ?base:int -> (string * int) list -> t
(** [build arrays] places each [(name, size_words)] in order, one word of
    padding between arrays.  [base] defaults to 0.  Raises
    [Invalid_argument] on duplicate names or nonpositive sizes. *)

val of_program : Program.t -> t
(** Place every array referenced by the program, each 4096 words — room
    for the longest standard Livermore loop with offsets. *)

val alias : t -> existing:string -> string -> unit
(** [alias t ~existing name] makes [name] address the same storage as
    [existing] (same base, same size).  Raises [Not_found] if [existing]
    is unknown, [Invalid_argument] if [name] is already placed. *)

val base_of : t -> string -> int
(** Raises [Not_found] for an unknown array. *)

val size_of : t -> string -> int
val arrays : t -> string list

val word_of : t -> Instr.mem -> base_index:int -> element:int -> int
(** Word address of element [element] of a strip whose first iteration has
    loop index [base_index]: [base + offset + (base_index + element) *
    stride]. *)

val scalar_word_of : t -> Instr.mem -> base_index:int -> int
(** Address of a scalar access: [word_of] with [element = 0]. *)
