open Convex_machine

(** Trace-replay co-simulation of the shared memory system.

    Where {!Parallel} models cross-CPU interference with a calibrated
    steal probability, this module makes it {e emerge}: each workload
    first runs solo (traced), its memory accesses are reconstructed as a
    time-stamped stream, and the streams of up to four CPUs are then
    replayed together, cycle by cycle, against the shared banks — each
    CPU has its own port (as on the C-240), but a bank in its busy window
    rejects everyone.  A rejected access slips that CPU's entire remaining
    stream by a cycle, so contention compounds exactly as queueing does.

    The paper's §4.2 rules of thumb then fall out rather than being
    dialed in: identical lockstep streams interleave cleanly across banks
    (the 5–10% case), while unrelated programs collide irregularly (the
    ~20% case), and memory-saturated codes expose the most degradation. *)

type access = { cycle : int; word : int }

type stream = {
  name : string;
  accesses : access list;  (** time-ordered solo access stream *)
  solo_cycles : float;
}

type cpu_outcome = {
  stream : stream;
  delay : int;  (** cycles of slip accumulated by the replay *)
  slowdown : float;  (** (solo + delay) / solo *)
}

type t = { cpus : cpu_outcome list; average_slowdown : float }

val stream_of_job :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  name:string ->
  Job.t ->
  stream
(** Solo-run the job (traced) and reconstruct its memory-access stream:
    each vector memory instruction contributes one access per element
    starting at its observed start cycle; scalar accesses contribute one.
    Bank addresses come from the same layout the run used.  [faults]
    applies the plan to the solo run; raises
    {!Macs_util.Macs_error.Error} if the solo run stalls out under it. *)

val replay :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  stream list ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** Replay up to four streams against shared banks.  CPU [i] starts
    [3 * i] cycles late (processes never start on the same cycle), and
    shorter streams repeat until they cover the longest, modeling a
    machine that stays loaded; per-CPU slip is then averaged back to one
    repetition.
    [faults] injects bank degradation, stuck/scrubbed banks and port
    spikes into the shared-bank replay; a plan that blocks some access
    forever yields [Error (Stall_out _)] once the progress guard trips.
    Raises [Invalid_argument] on an empty list or more than four streams
    (contract violations, not runtime outcomes). *)

val run :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * string) list ->
  (t, Macs_util.Macs_error.t) Stdlib.result
(** [stream_of_job] each workload, then [replay].  [faults] applies to
    both the solo trace runs and the shared replay; any stall-out is
    returned as [Error], never raised. *)

val run_exn :
  ?machine:Machine.t ->
  ?faults:Convex_fault.Fault.t ->
  (Job.t * string) list ->
  t
(** Like {!run}; raises {!Macs_util.Macs_error.Error} on failure. *)

val pp : Format.formatter -> t -> unit
