(** Deterministic initial data, standing in for the Livermore driver's
    array initialisation.

    Values are small positive floats derived from the array name and the
    element index, so runs are reproducible, products stay bounded, and
    divisions are safe. *)

val value : string -> int -> float
(** Element [i] of the array named [name]; strictly positive, below 0.2.
    Exception: arrays whose name starts with [IDX] hold integer-valued
    pseudo-random indices in [0; 1024), for gather/scatter kernels. *)

val fill : string -> int -> float array

val store_of : Kernel.t -> Convex_vpsim.Store.t
(** Build the kernel's initial store: every declared array filled by
    {!fill}, and every alias bound to the same storage as its target. *)
