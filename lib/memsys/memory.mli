open Convex_machine

(** Cycle-level model of one CPU's view of the C-240 memory system.

    The model tracks per-bank busy times (bank = word address modulo the
    bank count, 8-cycle bank cycle time), the periodic refresh window
    (every 400 cycles, 8 cycles long, during which no bank accepts a new
    access), and optional port contention from other CPUs.  A unit-stride
    stream on an idle machine sustains exactly one access per cycle, the
    peak the paper cites; stride-16 or stride-32 streams collide in the
    banks and are throttled, which is how the simulator exposes nonunit
    stride costs the MA/MAC bounds ignore. *)

type t

val create :
  ?contention:Contention.t ->
  ?faults:Convex_fault.Fault.t ->
  ?log:(int * int) list ref ->
  Mem_params.t ->
  t
(** [log], when provided, receives every accepted access as a
    [(cycle, word)] pair (prepended; callers sort).  Used by the
    co-simulator to capture exact solo access streams.  [faults] (default
    {!Convex_fault.Fault.none}) injects the plan's memory-level faults:
    degraded/stuck banks, ECC-scrub windows, refresh jitter and port-steal
    spikes. *)

val reset : t -> unit
(** Clear bank state (contention and parameters are kept). *)

val release : t -> unit
(** Give [t]'s port table back to the calling domain for the next
    {!create} to reuse.  [t] must not be used afterwards. *)

val refresh_active : t -> cycle:int -> bool

val try_access : t -> cycle:int -> word:int -> bool
(** Attempt a one-word access at [cycle].  Succeeds iff no refresh is in
    progress, the port is not stolen, and the addressed bank is idle; on
    success the bank is busy for the bank cycle time.  At most one access
    per cycle is accepted (single port); a second call for the same cycle
    returns [false]. *)

val bank_of : t -> word:int -> int

(** Why {!admit_stream} refused a stream. *)
type refusal =
  | Contended  (** a contention model could steal any port cycle *)
  | Below_port_mark
      (** the stream starts at or below the port high-water mark and the
          consumed slots above its start are not one dense span *)
  | Over_slip  (** some element would wait more than [max_slip] attempts *)
  | Fault_window
      (** the plan is not quiescent from the start through the landing *)

val admit_stream :
  t ->
  start:int ->
  count:int ->
  z:int ->
  word0:int ->
  wstride:int ->
  max_slip:int ->
  (float array, refusal) result
(** Closed-form admission of an affine access stream: element [e] wants
    word [word0 + e * wstride] no earlier than cycle [start + e * z]
    (integer stream rate [z >= 1], [count >= 1], [start >= 0]; anything
    else raises [Invalid_argument]).  Returns [Ok cycles] — the access
    cycle of every element, each an exact integer-valued float — exactly
    when the cycle-by-cycle {!try_access} spin loop would have granted
    the whole stream with every spin resolvable in closed form: refresh
    waits from the static window geometry, bank drains from the pass's
    own copy of the bank busy lines, and — when the stream starts at or
    below the port high-water mark — an element-0 chase across the most
    recent span, provided that span is dense.  A stream that starts above
    the mark and provably meets no busy bank (each bank free at its first
    nominal touch, revisits at least [bank_busy_cycles] apart) is proved
    in O(banks) instead of one step per element.  Every absorbed wait is
    charged to the same stall counter {!try_access} would have charged,
    and every per-element slip must stay within [max_slip] failed
    attempts; the model state afterwards is precisely what the spin loop
    would have produced.  Returns [Error] — leaving the model untouched —
    whenever any proof obligation fails.  An [Error] is always safe: the
    caller falls back to the cycle stepper, which computes the same
    answer the slow way. *)

val fill_affine :
  float array -> from:int -> upto:int -> first:float -> step:float -> unit
(** [fill_affine a ~from ~upto ~first ~step] sets [a.(e)] to
    [first + (e - from) * step] for [e] in [\[from, upto)], by
    accumulation: exact, and equal to the cycle stepper's own
    element-by-element sums, when [first] and [step] are integer-valued
    and every value stays below 2^53. *)

val stats_accesses : t -> int
(** Accesses accepted since creation/reset. *)

val stats_conflict_stalls : t -> int
(** Failed attempts due to a busy bank. *)

val stats_refresh_stalls : t -> int

val stats_port_stalls : t -> int

val stats_fault_stalls : t -> int
(** Failed attempts due to an injected bank fault (stuck or scrubbed). *)
