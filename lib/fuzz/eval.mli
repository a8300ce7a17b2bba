(** Direct loop-IR evaluator: the differential oracle's second opinion.

    Executes a kernel straight from its IR — no lowering, no register
    allocation, no scheduling — against a {!Convex_vpsim.Store.t},
    mirroring the machine's observable execution order exactly:
    segments in order, each segment strip-mined into chunks of 128
    elements (one element in scalar mode), statements in order over the
    whole strip, store and scatter value vectors computed in full before
    any element is written, reductions summed ascending per strip into a
    partial that is then folded into the accumulator, and the
    accumulator protocol (init in the segment prologue, scale/store in
    the epilogue) run per segment.

    The mirror extends to two bit-level quirks of the compiled code:
    a [Zero] accumulator init is evaluated as [acc -. acc] (the compiler
    zeroes the register by subtracting it from itself, which is NaN if a
    previous segment left it infinite), and in scalar mode the evaluator
    refuses [Neg] outright (the scalar lowerer's zero-materialisation
    trick depends on stale register contents no IR-level evaluator can
    see).

    Agreement with {!Convex_vpsim.Interp} on the compiled program is
    therefore exact — bit-for-bit — for kernels whose loads and stores
    touch disjoint arrays (the fuzzer's vector profile) or whose
    dependence distance matches element-order execution (the scalar
    profile's recurrences). *)

val run :
  mode:Convex_vpsim.Job.mode ->
  store:Convex_vpsim.Store.t ->
  Lfk.Kernel.t ->
  (unit, Macs_util.Macs_error.t) result
(** Evaluate the kernel, mutating [store] in place, at the C-240 vector
    length of 128 ({!Convex_vpsim.Interp}'s default).  Errors are typed:
    out-of-bounds references, unknown arrays or scalars, and scalar-mode
    [Neg] report [Macs_error.Interp_fault] with site ["Eval.run"]. *)
