open Convex_machine
open Convex_memsys
open Convex_fault

(* The tiered stepper's analytical core.

   [Sim.run]'s inner loop advances one vector element at a time: each
   element's entry cycle is the max of the pipe rate, its chain/WAW/WAR
   dependences, and — for memory instructions — a cycle-by-cycle spin
   against the bank model.  Almost all of that work is predictable: on a
   healthy machine a unit-stride load stream is provably conflict-free,
   every dependence curve is known before the first element issues, and
   the refresh geometry is static.  MACS itself is built on this
   observation (the M/MA/MAC/MACS hierarchy models exactly the
   predictable part); Concorde generalizes it to "analytical model with a
   detailed fallback".

   [try_leap] is the fallback boundary: given everything the cycle
   stepper knows at instruction start, it either {e proves} that the
   whole element stream advances at the closed-form schedule
   [t0 + e * z] (plus exactly-computable refresh slips) and returns that
   schedule with all memory side effects applied, or returns [None] and
   the caller runs the cycle loop unchanged.  The proof obligations are
   deliberately conservative — any doubt (fractional rates, a fault plan
   that is not quiescent over the stream's horizon, a gather's
   data-dependent banks, a chained producer whose curve crosses the
   closed form) rejects the leap.  Rejection costs speed, never
   correctness: the two paths are cross-checked bit-for-bit by the fuzz
   oracle stack's fidelity-diff rung and the equivalence suite. *)

type fidelity = Cycle | Tiered

(* the cycle stepper polls its watchdog every [spin_check_interval]
   failed access attempts ([Sim.watchdog_spin_mask] is this minus one);
   a leap must never absorb a wait long enough to have crossed that
   boundary when a watchdog is armed, or a budget cancellation could be
   observed on one path and not the other *)
let spin_check_interval = 4096

(* One dependence the stream must respect: element [e] may not enter
   before [curve.(min e (n-1)) +. lift].  Chained producers carry their
   result latency as [lift]; WAW/WAR hazards carry 1.0 (one cycle past
   the prior writer's/reader's entry). *)
type dep = { curve : float array; lift : float }

(* How the instruction touches memory. *)
type stream =
  | Compute  (** no memory traffic: the schedule is pure arithmetic *)
  | Affine of { word0 : int; wstride : int }
      (** one word per element at [word0 + e * wstride] *)
  | Opaque
      (** data-dependent addressing (gather/scatter): banks are not
          provable, never leapt *)

(* Closed-form arithmetic is only bit-identical to the cycle stepper's
   element-by-element accumulation when every quantity is an integer
   held exactly in a float: integer adds and multiplies below 2^53 are
   exact, so [t0 + e * z] accumulated equals [t0 + e * z] computed.
   Fractional rates (the reduction pipe's z = 1.35) never leap. *)
let exact_cycle f =
  Float.is_integer f && f >= 0.0 && f <= 4_503_599_627_370_496.0 (* 2^52 *)

(* Is every dependence curve at or below the closed-form schedule?  Each
   curve is nondecreasing and clamps at its last element, while the
   schedule keeps climbing by [z >= 1], so checking up to the clamp
   point covers the whole stream. *)
let deps_clear ~t0 ~z ~vl deps =
  List.for_all
    (fun { curve; lift } ->
      let n = Array.length curve in
      (* A producer whose last element already lies at or below the
         stream's start can never bind (its curve is nondecreasing) —
         the common case once streams serialize through the memory
         port. *)
      if curve.(n - 1) +. lift <= t0 then true
        (* Every entry curve climbs by at least 1 per element (no pipe
           streams above rate 1), so when [z = 1] and the endpoints span
           exactly [n - 1] the increments must all be exactly 1: the
           curve is affine with the schedule's slope, tracks it in
           lockstep, and element 0 decides the whole stream.
           Integer-valued floats, so the equality is exact.  For [z > 1]
           a sub-rate-[z] producer could bulge above the chord, so only
           the full scan is sound. *)
      else if
        z = 1.0 && n > 1
        && curve.(n - 1) -. curve.(0) = float_of_int (n - 1)
      then curve.(0) +. lift <= t0
      else begin
        let last = min (vl - 1) (n - 1) in
        let ok = ref true in
        let e = ref 0 in
        while !ok && !e <= last do
          if curve.(!e) +. lift > t0 +. (float_of_int !e *. z) then
            ok := false;
          incr e
        done;
        !ok
      end)
    deps

(* Compute streams never touch the bank model, so under a quiescent plan
   the cycle stepper's recurrence
     [enter.(e) = max (enter.(e-1) + z) (ready e)]
   is pure float arithmetic over known curves — replay it verbatim
   (same operations, same order, hence bit-identical) but over flat dep
   arrays instead of closure chains.  This handles fractional rates and
   mid-stream-binding producers that the closed form cannot. *)
let compute_stream ~t0 ~vl ~z deps =
  let entries = Array.make vl t0 in
  let deps = Array.of_list deps in
  let nd = Array.length deps in
  for e = 1 to vl - 1 do
    let ready = ref 0.0 in
    for d = 0 to nd - 1 do
      let { curve; lift } = deps.(d) in
      let v = curve.(min e (Array.length curve - 1)) +. lift in
      if v > !ready then ready := v
    done;
    entries.(e) <- Float.max (entries.(e - 1) +. z) !ready
  done;
  entries

let try_leap ~memory ~mem_params ~faults ~guard ~watchdog_armed ~t0 ~vl ~z
    ~deps stream =
  match stream with
  | Opaque -> None
  | Compute | Affine _ -> (
      if vl <= 0 || t0 < 0.0 || z < 1.0 then None
      else
        (* The fault plan must be provably silent over every cycle the
           stream (and the per-element rate queries on it) can touch.
           A dependence can hold elements past the nominal span, so the
           horizon starts from the latest cycle any dep can impose:
           [enter.(e) <= max t0 ready_max + e * z] by induction on the
           recurrence. *)
        let t0i = int_of_float t0 in
        let ready_max =
          List.fold_left
            (fun acc { curve; lift } ->
              Float.max acc (curve.(Array.length curve - 1) +. lift))
            t0 deps
        in
        let spani = int_of_float (Float.ceil (float_of_int (vl - 1) *. z)) in
        if
          not
            (Fault.quiescent faults ~lo:t0i
               ~hi:
                 (Mem_params.leap_horizon mem_params
                    ~start:(int_of_float (Float.ceil ready_max))
                    ~span:spani))
        then None
        else
          match stream with
          | Opaque -> None
          | Compute ->
              (* when no dependence ever binds and the arithmetic is
                 exact-integer, the recurrence collapses to the closed
                 form — O(vl) with no dep scan.  Otherwise replay the
                 recurrence itself. *)
              if
                exact_cycle t0 && exact_cycle z
                && deps_clear ~t0 ~z ~vl deps
              then
                Some (Array.init vl (fun e -> t0 +. (float_of_int e *. z)))
              else Some (compute_stream ~t0 ~vl ~z deps)
          | Affine { word0; wstride } ->
              (* memory elements are granted at integer cycles: the spin
                 starts at [ceil t0], so a fractional [t0] (a reduction's
                 fractional completion propagating into issue) leaps fine
                 — the stream's schedule is anchored at the ceiling, and
                 dependences are checked against that integer anchor,
                 which lower-bounds every actual entry *)
              if not (exact_cycle z) then None
              else
                let start = int_of_float (Float.ceil t0) in
                if not (deps_clear ~t0:(float_of_int start) ~z ~vl deps)
                then None
                else
                  let max_slip =
                    if watchdog_armed then min guard (spin_check_interval - 1)
                    else guard
                  in
                  Memory.admit_stream memory ~start ~count:vl
                    ~z:(int_of_float z) ~word0 ~wstride ~max_slip)
