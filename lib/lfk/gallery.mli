(** A gallery of synthetic kernels beyond the Livermore set: the classic
    memory-system micro-patterns (STREAM-style daxpy and triad, a dot
    product, a 5-point stencil with shifted reuse, a Jacobi relaxation
    row, a strided gather, and a divide-heavy update).  Each comes with a
    reference implementation, so the full compile–interpret–verify
    pipeline of the LFK set applies to them too.

    Ids are 101 and up, outside the Livermore range. *)

val dot : Kernel.t
(** [s = sum x(i)*y(i)] — reduction into a stored scalar. *)

val triad : Kernel.t
(** [a(i) = b(i) + q*c(i)] — STREAM triad. *)

val stencil5 : Kernel.t
(** [a(i) = w*(b(i-2)+b(i-1)+b(i)+b(i+1)+b(i+2))] — one reuse stream the
    V6.1-style compiler reloads five times. *)

val gather16 : Kernel.t
(** [b(i) = q*a(16*i)] — a stride-16 stream that halves the sustainable
    memory rate (the D-bound demonstration). *)

val rcp_update : Kernel.t
(** [y(i) = y(i) + x(i)/z(i)] — exercises the long-latency divide and its
    masking rule. *)

val permute : Kernel.t
(** [y(i) = a(idx(i)) + y(i)] — a data-dependent gather whose random bank
    pattern throttles per the saturated-gather closed form. *)

val clip : Kernel.t
(** [y(i) = w * min(x(i), c)] — a compare into the vector merge register
    followed by a merge (vector edit on the multiply pipe). *)

val all : Kernel.t list

val find : int -> Kernel.t
(** By gallery id (101..); raises [Not_found]. *)

val run_reference : Kernel.t -> Convex_vpsim.Store.t -> unit
(** Ground-truth semantics, as {!Reference.run} for the Livermore set. *)

val output_arrays : Kernel.t -> string list
