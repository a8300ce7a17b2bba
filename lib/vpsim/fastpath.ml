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

(* The dependences the stream must respect, in a buffer the caller
   refills for every instruction: element [e] may not enter before
   [curves.(k).(min e (n-1)) +. lifts.(k)] for each [k < n].  Chained
   producers carry their result latency as the lift; WAW/WAR hazards
   carry 1.0 (one cycle past the prior writer's/reader's entry). *)
type deps = {
  mutable n : int;
  mutable curves : float array array;
  mutable lifts : float array;
}

let make_deps () =
  { n = 0; curves = Array.make 8 [||]; lifts = Array.make 8 0.0 }
let clear_deps d = d.n <- 0

let add_dep d curve lift =
  if d.n = Array.length d.curves then begin
    let grow a fill = Array.append a (Array.make d.n fill) in
    d.curves <- grow d.curves [||];
    d.lifts <- grow d.lifts 0.0
  end;
  d.curves.(d.n) <- curve;
  d.lifts.(d.n) <- lift;
  d.n <- d.n + 1

(* the latest any dependence lets element [e] enter (0.0 when none) *)
let ready_at d e =
  let r = ref 0.0 in
  for k = 0 to d.n - 1 do
    let c = d.curves.(k) in
    let v = c.(min e (Array.length c - 1)) +. d.lifts.(k) in
    if v > !r then r := v
  done;
  !r

(* How the instruction touches memory. *)
type stream =
  | Compute  (** no memory traffic: the schedule is pure arithmetic *)
  | Affine of { word0 : int; wstride : int }
      (** one word per element at [word0 + e * wstride] *)
  | Opaque
      (** data-dependent addressing (gather/scatter): banks are not
          provable, never leapt *)

(* ---- coverage: what the tiered stepper leapt and why it stepped ----

   Process-wide and domain-safe; never part of [Sim.stats], replies,
   journals or cache entries, whose bytes must not depend on which path
   ran. *)

type refusal =
  | Opaque_stream
  | Fault_window
  | Non_integer_z
  | Dependence
  | Below_port_mark
  | Over_slip
  | Contention

let refusals =
  [ Opaque_stream; Fault_window; Non_integer_z; Dependence; Below_port_mark;
    Over_slip; Contention ]

let refusal_name = function
  | Opaque_stream -> "opaque"
  | Fault_window -> "fault-window"
  | Non_integer_z -> "non-integer-z"
  | Dependence -> "dependence"
  | Below_port_mark -> "below-port-mark"
  | Over_slip -> "over-slip"
  | Contention -> "contention"

type coverage = {
  leapt : int;
  leapt_elements : int;
  stepped : int;
  stepped_elements : int;
  refused : (refusal * int) list;
}

let leapt_n = Atomic.make 0
let leapt_elements_n = Atomic.make 0
let stepped_n = Atomic.make 0
let stepped_elements_n = Atomic.make 0
let refused_n = List.map (fun r -> (r, Atomic.make 0)) refusals

let coverage () =
  {
    leapt = Atomic.get leapt_n;
    leapt_elements = Atomic.get leapt_elements_n;
    stepped = Atomic.get stepped_n;
    stepped_elements = Atomic.get stepped_elements_n;
    refused = List.map (fun (r, n) -> (r, Atomic.get n)) refused_n;
  }

let reset_coverage () =
  List.iter
    (fun a -> Atomic.set a 0)
    ([ leapt_n; leapt_elements_n; stepped_n; stepped_elements_n ]
    @ List.map snd refused_n)

let leapt ~vl entries =
  Atomic.incr leapt_n;
  ignore (Atomic.fetch_and_add leapt_elements_n vl);
  Some entries

let refuse ~vl reason =
  Atomic.incr stepped_n;
  ignore (Atomic.fetch_and_add stepped_elements_n vl);
  Atomic.incr (List.assq reason refused_n);
  None

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
let deps_clear ~t0 ~z ~vl d =
  let ok = ref true and k = ref 0 in
  while !ok && !k < d.n do
    let curve = d.curves.(!k) and lift = d.lifts.(!k) in
    let n = Array.length curve in
    (* A producer whose last element already lies at or below the
       stream's start can never bind (its curve is nondecreasing) — the
       common case once streams serialize through the memory port. *)
    (if curve.(n - 1) +. lift <= t0 then ()
       (* Every entry curve climbs by at least 1 per element (no pipe
          streams above rate 1), so when [z = 1] and the endpoints span
          exactly [n - 1] the increments must all be exactly 1: the
          curve is affine with the schedule's slope, tracks it in
          lockstep, and element 0 decides the whole stream.
          Integer-valued floats, so the equality is exact.  For [z > 1]
          a sub-rate-[z] producer could bulge above the chord, so only
          the full scan is sound. *)
     else if z = 1.0 && n > 1 && curve.(n - 1) -. curve.(0) = float_of_int (n - 1)
     then ok := curve.(0) +. lift <= t0
     else begin
       let last = min (vl - 1) (n - 1) in
       let e = ref 0 in
       while !ok && !e <= last do
         if curve.(!e) +. lift > t0 +. (float_of_int !e *. z) then ok := false;
         incr e
       done
     end);
    incr k
  done;
  !ok

(* [t0 + e * z] for every element, with no dependence binding: the
   stepper's own accumulation [enter.(e-1) +. z], exact on these
   integer-valued floats *)
let closed_form ~t0 ~vl ~z =
  let entries = Array.create_float vl in
  Memory.fill_affine entries ~from:0 ~upto:vl ~first:t0 ~step:z;
  entries

(* Compute streams never touch the bank model, so under a quiescent plan
   the cycle stepper's recurrence
     [enter.(e) = max (enter.(e-1) + z) (ready e)]
   is pure float arithmetic over known curves — replay it with the same
   sums and the same maxima (a maximum of non-negative cycles is exact in
   any order, hence bit-identical), but dependence by dependence over
   flat arrays: first [ready e] into [entries], skipping a dependence
   whose last element already lies at or below [t0] (it never binds),
   then the recurrence in one pass.  This handles fractional rates and
   mid-stream-binding producers that the closed form cannot. *)
let compute_stream ~t0 ~vl ~z d =
  let entries = Array.make vl 0.0 in
  for k = 0 to d.n - 1 do
    let c = d.curves.(k) and lift = d.lifts.(k) in
    let n = Array.length c in
    if c.(n - 1) +. lift > t0 then begin
      for e = 1 to min vl n - 1 do
        let v = c.(e) +. lift in
        if v > entries.(e) then entries.(e) <- v
      done;
      let v = c.(n - 1) +. lift in
      for e = n to vl - 1 do
        if v > entries.(e) then entries.(e) <- v
      done
    end
  done;
  entries.(0) <- t0;
  for e = 1 to vl - 1 do
    let next = entries.(e - 1) +. z in
    if next >= entries.(e) then entries.(e) <- next
  done;
  entries

let try_leap ~memory ~mem_params ~faults ~guard ~watchdog_armed ~t0 ~vl ~z
    ~deps stream =
  match stream with
  | Opaque -> refuse ~vl Opaque_stream
  | Compute | Affine _ -> (
      if vl <= 0 || t0 < 0.0 || z < 1.0 then refuse ~vl Non_integer_z
      else
        (* The fault plan must be provably silent over every cycle the
           stream (and the per-element rate queries on it) can touch.
           A dependence can hold elements past the nominal span, so the
           horizon starts from the latest cycle any dep can impose:
           [enter.(e) <= max t0 ready_max + e * z] by induction on the
           recurrence. *)
        let ready_max = ref t0 in
        for k = 0 to deps.n - 1 do
          let c = deps.curves.(k) in
          let v = c.(Array.length c - 1) +. deps.lifts.(k) in
          if v > !ready_max then ready_max := v
        done;
        let spani = int_of_float (Float.ceil (float_of_int (vl - 1) *. z)) in
        if
          not
            (Fault.quiescent faults ~lo:(int_of_float t0)
               ~hi:
                 (Mem_params.leap_horizon mem_params
                    ~start:(int_of_float (Float.ceil !ready_max))
                    ~span:spani))
        then refuse ~vl Fault_window
        else
          match stream with
          | Opaque -> refuse ~vl Opaque_stream
          | Compute ->
              (* when no dependence ever binds and the arithmetic is
                 exact-integer, the recurrence collapses to the closed
                 form — O(vl) with no dep scan.  Otherwise replay the
                 recurrence itself. *)
              if exact_cycle t0 && exact_cycle z && deps_clear ~t0 ~z ~vl deps
              then leapt ~vl (closed_form ~t0 ~vl ~z)
              else leapt ~vl (compute_stream ~t0 ~vl ~z deps)
          | Affine { word0; wstride } -> (
              (* memory elements are granted at integer cycles: the spin
                 starts at [ceil t0], so a fractional [t0] (a reduction's
                 fractional completion propagating into issue) leaps fine
                 — the stream's schedule is anchored at the ceiling, and
                 dependences are checked against that integer anchor,
                 which lower-bounds every actual entry *)
              if not (exact_cycle z) then refuse ~vl Non_integer_z
              else
                let start = int_of_float (Float.ceil t0) in
                if not (deps_clear ~t0:(float_of_int start) ~z ~vl deps) then
                  refuse ~vl Dependence
                else
                  let max_slip =
                    if watchdog_armed then min guard (spin_check_interval - 1)
                    else guard
                  in
                  match
                    Memory.admit_stream memory ~start ~count:vl
                      ~z:(int_of_float z) ~word0 ~wstride ~max_slip
                  with
                  | Ok entries -> leapt ~vl entries
                  | Error Memory.Contended -> refuse ~vl Contention
                  | Error Memory.Below_port_mark -> refuse ~vl Below_port_mark
                  | Error Memory.Over_slip -> refuse ~vl Over_slip
                  | Error Memory.Fault_window -> refuse ~vl Fault_window))
