open Convex_isa
open Convex_machine

(** Chime partitioning (paper §3.3).

    A chime is a maximal group of consecutive vector instructions that can
    issue in quick succession and execute concurrently across the function
    pipes, chaining permitted.  Partitioning walks the loop body in
    schedule order and closes the current chime when the next vector
    instruction cannot join it:

    - each function pipe holds at most [Machine.pipe_count] instructions
      per chime (one per pipe on the C-240);
    - at most two reads and one write per vector register pair
      (\{v0,v4\} \{v1,v5\} \{v2,v6\} \{v3,v7\});
    - a chime containing a vector memory access cannot span a scalar
      memory access: a scalar load/store closes such a chime, and bars
      vector memory operations from joining the current one.

    Scalar instructions otherwise do not appear in chimes (they execute
    concurrently in the ASU). *)

type t = {
  instrs : Instr.t list;  (** vector instructions, in schedule order *)
  split_by_scalar_memory : bool;
      (** this chime was closed early by a scalar load/store *)
}

val instr_count : t -> int
val has_memory : t -> bool

val z_max : machine:Machine.t -> t -> float
(** Largest per-element rate among the chime's instructions. *)

val bubble_sum : machine:Machine.t -> t -> int
(** Sum of the tailgate bubbles of the chime's instructions (eq. 13). *)

val partition : machine:Machine.t -> Instr.t list -> t list
(** Partition a loop body (vector and scalar instructions, in schedule
    order).  Bodies with no vector instructions yield []. *)

val pp : Format.formatter -> t -> unit
