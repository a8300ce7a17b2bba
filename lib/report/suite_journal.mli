(** Checkpoint journal for supervised suite runs: one {!Macs_util.Journal}
    record per completed {!Suite.row}, written after every kernel, so an
    interrupted run resumes by replaying completed rows instead of
    recomputing them.

    Record stream layout (after the journal header):

    - first a [config] record pinning the run — the canonical machine
      spec ({!Convex_dsl.Machine_dsl.to_spec}), opt level, fault-plan
      clause syntax ({!Convex_fault.Fault.to_spec}) and progress guard.
      Resume refuses a journal whose config differs from the requested
      run, because replayed rows would not be comparable;
    - then [row] records in kernel order, each fully self-describing:
      measured rows carry the perf numbers and checksum, estimated and
      failed rows carry the structured diagnostic
      ({!Macs_util.Macs_error.t}) field-by-field;
    - optionally [violation] records from the per-row bound-oracle
      cross-check.

    Floats travel as hex literals, so a replayed row is byte-identical to
    the one originally journaled. *)

open Macs_util

val format : string
(** Schema name carried in the journal header ("macs-suite-journal"). *)

type config = {
  machine : string;
      (** {!Convex_dsl.Machine_dsl.to_spec}: every field of the machine,
          not just its display name *)
  opt : string;  (** {!Fcc.Opt_level.name} *)
  faults : string;  (** fault-plan clause syntax; [""] for none *)
  guard : int;
}

val config_of_run :
  machine:Convex_machine.Machine.t ->
  opt:Fcc.Opt_level.t ->
  faults:Convex_fault.Fault.t ->
  guard:int ->
  config
(** The config record of a run: the machine by its canonical spec, the
    fault plan by its clause syntax ([""] for none).  It is the whole
    identity of a run's rows — the resume check compares it and the
    suite cache key embeds it. *)

(** {1 Record codecs} *)

val config_record : config -> Journal.record
val config_of_record : Journal.record -> (config, string) result
val record_of_row : Suite.row -> Journal.record
val row_of_record : Journal.record -> (Suite.row, string) result

(** {1 Cells}

    One cell is one kernel's complete journal footprint, in the order a
    sequential run appends it: consumed retry attempts, then oracle
    violations found on the fresh result, then the closing row. *)

type cell = {
  row : Suite.row;
  attempts : (int * Macs_error.t) list;
      (** [(guard_scale, diagnostic)] per consumed retry *)
  violations : Macs.Oracle.violation list;
}

val records_of_cell : cell -> Journal.record list
val cell_of_records : Journal.record list -> (cell, string) result
