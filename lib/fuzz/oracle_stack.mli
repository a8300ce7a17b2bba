(** The differential oracle stack: every cross-check one generated kernel
    is subjected to.

    Stage by stage (each stage a named {!check} with a stable id, so the
    shrinker can ask "does {e this} check still fail?"):

    - ["compile:<opt>"] — the kernel compiles at every optimization
      level.  {!Fcc.Compiler.Register_pressure} is a {e skip} (the
      generated expression legitimately needs more registers than the
      C-240 has); any other exception is a failure.
    - ["diff:<opt>"] — at every {e functional} level, the compiled
      program run under {!Convex_vpsim.Interp} must agree bit-for-bit
      with the direct IR evaluator ({!Eval}) on every declared array.
      Both runs faulting (identically typed) also counts as agreement.
      Scalar-mode kernels diff once (the scalar lowerer ignores the
      level).
    - ["asm-roundtrip"] — the compiled listing reparses to the identical
      program.
    - ["sim"] — the healthy simulator completes (a budget cancellation
      is a skip; a livelock on a healthy machine is a failure).
    - ["oracle:<invariant>"] — the measured time respects the MACS
      hierarchy ({!Macs.Oracle.check_row}: [M <= MA <= MAC <= MACS <=
      measured], or [scalar-bound <= measured] in scalar mode) and
      schedule monotonicity (["oracle:opt-monotonicity"]).
    - ["fault-sim:<plan>"] — under each sampled fault plan the simulator
      either completes or degrades to a {e typed} error; an escaping
      exception is a failure.  (Faulted-never-faster is checked once per
      run on the monotone probe — see {!Driver} — because general
      kernels are not monotone under faults.)
    - ["fidelity-diff"] / ["fidelity-diff:<plan>"] — the tiered stepper
      ({!Convex_vpsim.Fastpath.Tiered}) is bit-identical to pure cycle
      stepping on the same job: total cycles, every stall counter,
      per-pipe busy time, the full trace event list and the word-level
      access log are compared bitwise (floats by their IEEE bits), with a
      deterministic guard and no watchdog.  When both tiers fail, even
      the rendered diagnostic must match.  This rung is the empirical
      proof obligation behind the fast path's "never changes the
      answer" claim. *)

type outcome = Pass | Skip of string | Fail of string

type check = { id : string; outcome : outcome }

type report = {
  kernel : Lfk.Kernel.t;
  mode : Convex_vpsim.Job.mode option;
      (** compilation mode at v61, when it compiled *)
  cpl : float option;  (** healthy measured CPL, when simulated *)
  checks : check list;
}

val failures : report -> check list
val fails : report -> id:string -> bool

val run :
  ?machine:Convex_machine.Machine.t ->
  ?sim:bool ->
  ?fault_plans:Convex_fault.Fault.t list ->
  ?budget:Convex_harness.Budget.t ->
  Lfk.Kernel.t ->
  report
(** Run the whole stack.  [machine] defaults to the healthy C-240;
    [sim:false] stops after the functional stages (compile, diff,
    round-trip) — the cheap mode test properties use.  [budget] caps
    each simulation through a fresh {!Convex_harness.Budget.watchdog}. *)

val check_program : Convex_isa.Program.t -> check
(** The assembly round-trip check alone, on an arbitrary program — the
    printer/parser fuzz entry. *)
