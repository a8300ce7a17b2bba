open Convex_isa

(** Seedable random generators: instructions and bodies for simulator
    properties, and well-formed loop-IR kernels for the differential
    fuzzer.

    The instruction-level generators were born in the test suite (shared
    QCheck properties over the simulator and the chime model) and keep
    their historical shapes; the kernel generators are fuzzer-grade:
    everything they produce passes {!Lfk.Kernel.validate}, stays in
    bounds on the sized arrays, and respects the compiler's vector-value
    constraints, so every oracle-stack failure is a finding rather than a
    generator artifact.

    Adversarial choices are deliberate: strides crossing the eight-way
    bank interleave ({!adversarial_strides}), segment lengths straddling
    the 128-element strip-mine edges ({!edge_lengths}), gathers and
    scatters through IDX-prefixed index arrays, reductions, and
    element-wise selects. *)

(** {1 Instruction-level generators} *)

val instr_arbitrary : Instr.t QCheck.arbitrary
val body_arbitrary : Instr.t list QCheck.arbitrary
val vector_body_arbitrary : Instr.t list QCheck.arbitrary

(** {1 Simple kernel generator (compiler round-trip tests)} *)

val kernel_gen : Lfk.Kernel.t QCheck.Gen.t
val kernel_arbitrary : Lfk.Kernel.t QCheck.arbitrary

(** {1 Fuzzer-grade kernel generators} *)

type profile =
  | Vector_profile
      (** Vectorizable kernels: disjoint load/store pools, gathers,
          scatters, reductions, selects. *)
  | Scalar_profile
      (** Loop-carried kernels ([REC(k+1) := f(REC(k), ...)]) that the
          vectorizer must reject, compiled to C-240 scalar mode; only
          scalar-lowerable constructs appear. *)

val fuzz_kernel_gen : profile -> Lfk.Kernel.t QCheck.Gen.t
(** Kernels valid by construction: array sizes are computed from the
    generated references and segments ({!min_array_sizes}), IDX-indexed
    arrays are sized for the full [0, 1024) index range, and every
    compiler vector-value constraint is respected. *)

val fuzz_kernel_arbitrary : profile -> Lfk.Kernel.t QCheck.arbitrary

val min_array_sizes : Lfk.Kernel.t -> (string * int) list
(** Smallest in-bounds size for every array the kernel references, from
    the affine extents over its segments; arrays reached through gathers
    or scatters are sized for the whole IDX value range.  Used by the
    generator to size arrays and by the shrinker to shrink them. *)

(** {1 Assembly round-trip fuzzing} *)

val program_gen : Program.t QCheck.Gen.t
(** Random programs whose [sop] names stress the listing grammar
    (spaces, commas, semicolons, percent signs, the empty name) — the
    printer/parser round-trip fuzz input. *)
