(** Complete machine description used by both the MACS bounds model and the
    cycle-level simulator.

    A description bundles the vector timing table, the memory parameters,
    the function-pipe configuration, and the chime legality limits.  All
    presets derive from {!c240}; the variants exist for the ablation studies
    (what if tailgating were perfect?  what if the machine had a second
    memory pipe, like a Cray X-MP?  what if memory never refreshed?). *)

type pipe_config = { load_store : int; add_unit : int; multiply_unit : int }
(** Number of function units of each kind.  The C-240 has one of each. *)

type t = {
  name : string;
  clock_mhz : float;  (** 25 MHz: a 40 ns effective clock period. *)
  max_vl : int;  (** vector register length, 128 elements *)
  timing : Timing.table;
  memory : Mem_params.t;
  pipes : pipe_config;
  pair_read_limit : int;
      (** reads allowed per vector register pair per chime (2) *)
  pair_write_limit : int;
      (** writes allowed per vector register pair per chime (1) *)
  scalar_cycles : int;  (** issue+execute cycles per scalar ALU instruction *)
  scalar_memory_cycles : int;
      (** port-occupancy cycles of a scalar load/store *)
}

val c240 : t
(** The machine of the case study. *)

val ideal : t
(** MA-style idealization: no bubbles, no refresh — every vector operation
    sustains one element per clock.  Useful to check that the MACS bound
    collapses onto the MAC bound when schedule effects are removed. *)

val no_bubbles : t -> t
(** Same machine with all tailgate bubbles forced to zero. *)

val no_refresh : t -> t

val no_long_z : t -> t
(** Same machine with every vector class clamped to Z = 1: long-operation
    drains (divide, square root, reductions) cost no more than any other
    chime member.  Bubbles and refresh are kept.  Used by the bound oracle
    to compare schedules on a drain-neutral footing, since drain
    masking/exposure flips with chime composition and is therefore not
    monotone under rescheduling. *)

val dual_load_store : t -> t
(** Hypothetical variant with two memory pipes (used by an ablation bench;
    only the simulator and chime partitioner consult the pipe counts). *)

val broken_hierarchy : t -> t
(** Deliberately inconsistent variant: every pipe class doubled, so the
    schedule-aware MACS bound packs two operations per chime and falls
    below the single-unit MA/MAC counts bounds — the hierarchy
    [M <= MA <= MAC <= MACS] is violated by construction.  Exists as the
    negative fixture for the bound oracle ([macs_cli validate] must exit
    non-zero on it); never use it for performance numbers. *)

val clock_period_ns : t -> float

val mflops_of_cpf : t -> float -> float
(** [mflops_of_cpf m cpf] is [clock_mhz / cpf] (paper eq. 4 applied to a
    single CPF value). *)

val pipe_count : t -> Pipe.t -> int

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val presets : (string * t) list
(** Every named preset, [c240] variants included, keyed by the spelling
    the CLI and the fuzz corpus store ("c240", "ideal", "no-bubbles",
    "no-refresh", "dual-lsu", "broken-hierarchy"). *)

val preset_names : string list

val of_name : string -> (t, string) result
(** Look a preset up by name; the error message lists the valid names. *)
