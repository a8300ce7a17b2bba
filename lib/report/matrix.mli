(** The resilience matrix: worst observed verdict per (row, column) cell.

    The chaos campaign renders one with kernels as rows and fault-plan
    families as columns, but the grid itself is generic: any two string
    axes and a three-valued verdict.  Setting a cell twice keeps the
    worse verdict ([Violation] > [Degraded] > [Pass]), so repeated
    campaign cells in the same family aggregate naturally. *)

type verdict = Pass | Degraded | Violation

val worst : verdict -> verdict -> verdict

type t

val create : rows:string list -> cols:string list -> t
val set : t -> row:string -> col:string -> verdict -> unit
val get : t -> row:string -> col:string -> verdict option

val render : ?title:string -> t -> string
(** ASCII table: one row per [rows] entry, one column per [cols] entry,
    ["-"] for never-exercised cells.  No trailing newline. *)
