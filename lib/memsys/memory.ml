open Convex_machine
open Convex_fault

type t = {
  params : Mem_params.t;
  contention : Contention.t;
  faults : Fault.t;
  log : (int * int) list ref option;
  bank_free_at : int array;
  port_used : (int, unit) Hashtbl.t;
      (* cycles on which our port slot was consumed; a hash table rather
         than a high-water mark because the simulator schedules
         instructions in issue order, so queries arrive out of time
         order *)
  mutable port_hwm : int;
      (* highest cycle whose port slot has ever been consumed (-1 when
         none): an access stream starting strictly above it can never
         collide with an already-granted slot, the O(1) port-safety
         test the analytical fast path leans on *)
  mutable spans : float array array;
      (* access schedules committed by [admit_stream], in admission
         order, which is also ascending cycle order (each admitted
         stream starts strictly above the then-current high-water
         mark).  Entries are exact integer-valued floats — the array the
         caller gets back is the array stored here.  Port membership for
         leapt slots is answered by binary search instead of one
         hash-table entry per element, so a leap's commit cost is
         independent of its length *)
  mutable nspans : int;
  mutable last_span_dense : bool;
      (* the most recent span was admitted at z = 1 with no internal
         conflict gap: every cycle from its first to its last slot is
         either a consumed slot or inside a refresh window, which is
         what lets a follow-on stream's element-0 spin across it be
         charged in closed form *)
  mutable accesses : int;
  mutable conflict_stalls : int;
  mutable refresh_stalls : int;
  mutable port_stalls : int;
  mutable fault_stalls : int;
  scratch_banks : int array;
      (* [admit_stream]'s working copy of [bank_free_at]: preallocated
         so a short leap doesn't pay an allocation *)
}

(* [Hashtbl.create 4096] is a 32 KB major-heap allocation, paid by every
   run although a run that leaps every stream never touches the table, and
   a smaller initial table makes the cycle stepper resize.  So each domain
   keeps one spare table, handed out by [create] and returned empty by
   [release].  The exchange is atomic because systhreads share their
   domain's slot: two [create]s can never be handed the same table. *)
let spare_port_table : (int, unit) Hashtbl.t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let create ?(contention = Contention.none) ?(faults = Fault.none) ?log
    (params : Mem_params.t) =
  let port_used =
    match Atomic.exchange (Domain.DLS.get spare_port_table) None with
    | Some h -> h
    | None -> Hashtbl.create 4096
  in
  {
    params;
    contention;
    faults;
    log;
    bank_free_at = Array.make params.banks 0;
    port_used;
    port_hwm = -1;
    spans = [||];
    nspans = 0;
    last_span_dense = false;
    accesses = 0;
    conflict_stalls = 0;
    refresh_stalls = 0;
    port_stalls = 0;
    fault_stalls = 0;
    scratch_banks = Array.make params.banks 0;
  }

let release t =
  Hashtbl.reset t.port_used;
  Atomic.set (Domain.DLS.get spare_port_table) (Some t.port_used)

let reset t =
  Array.fill t.bank_free_at 0 (Array.length t.bank_free_at) 0;
  Hashtbl.reset t.port_used;
  t.port_hwm <- -1;
  t.spans <- [||];
  t.nspans <- 0;
  t.last_span_dense <- false;
  t.accesses <- 0;
  t.conflict_stalls <- 0;
  t.refresh_stalls <- 0;
  t.port_stalls <- 0;
  t.fault_stalls <- 0

(* The refresh window sits at the end of each period so that short runs
   starting at cycle 0 are not unrealistically hit by a refresh on their
   first access (real runs start at a random refresh phase).  A fault plan
   with refresh jitter widens the window by a per-period pseudorandom
   amount. *)
let refresh_active t ~cycle =
  t.params.refresh_duration > 0
  && t.params.refresh_period <> max_int
  &&
  let duration =
    t.params.refresh_duration
    + Fault.refresh_extension t.faults ~period:t.params.refresh_period ~cycle
  in
  cycle mod t.params.refresh_period >= t.params.refresh_period - duration

let port_stolen t ~cycle =
  Contention.sampler t.contention cycle
  || Fault.port_blocked t.faults ~cycle

let bank_of t ~word =
  let b = word mod t.params.banks in
  if b < 0 then b + t.params.banks else b

(* Was [cycle]'s port slot consumed by a leapt stream?  Spans are
   pairwise disjoint and ascending (admission requires each stream to
   start strictly above the then-current high-water mark), so binary
   search finds the one candidate span, then the slot within it. *)
let span_taken t ~cycle =
  t.nspans > 0
  &&
  (* slots are exact integer-valued floats, so equality against the
     converted probe is exact *)
  let c = float_of_int cycle in
  (* last span whose first slot is <= cycle *)
  let lo = ref 0 and hi = ref (t.nspans - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.spans.(mid).(0) <= c then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found >= 0
  &&
  let s = t.spans.(!found) in
  c <= s.(Array.length s - 1)
  &&
  let lo = ref 0 and hi = ref (Array.length s - 1) and hit = ref false in
  while (not !hit) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) = c then hit := true
    else if s.(mid) < c then lo := mid + 1
    else hi := mid - 1
  done;
  !hit

(* every consumed slot is at or below the high-water mark, so probes
   above it skip both membership structures *)
let port_taken t ~cycle =
  cycle <= t.port_hwm
  && (Hashtbl.mem t.port_used cycle || span_taken t ~cycle)

let try_access t ~cycle ~word =
  if refresh_active t ~cycle then begin
    t.refresh_stalls <- t.refresh_stalls + 1;
    false
  end
  else if port_taken t ~cycle then begin
    t.port_stalls <- t.port_stalls + 1;
    false
  end
  else if port_stolen t ~cycle then begin
    t.port_stalls <- t.port_stalls + 1;
    false
  end
  else
    let bank = bank_of t ~word in
    if Fault.bank_blocked t.faults ~bank ~cycle then begin
      t.fault_stalls <- t.fault_stalls + 1;
      false
    end
    else if t.bank_free_at.(bank) > cycle then begin
      t.conflict_stalls <- t.conflict_stalls + 1;
      false
    end
    else begin
      t.bank_free_at.(bank) <-
        cycle + t.params.bank_busy_cycles
        + Fault.bank_extra_busy t.faults ~bank ~cycle;
      Hashtbl.replace t.port_used cycle ();
      if cycle > t.port_hwm then t.port_hwm <- cycle;
      t.accesses <- t.accesses + 1;
      (match t.log with
      | Some r -> r := (cycle, word) :: !r
      | None -> ());
      true
    end

(* ---- analytical stream admission (the tiered fast path) ----

   [admit_stream] replaces [count] cycle-by-cycle [try_access] spins with
   one pure pass that resolves every spin in closed form.  Most streams
   meet no busy bank at all, which {!conflict_free} proves in O(banks)
   before any element is placed; such a stream's schedule is the nominal
   one slipped over refresh windows.  Otherwise one pass per element
   does the general work.  Three stall
   families are absorbed exactly, each classified as [try_access] would
   have classified the failed attempt at that cycle:

   - {e refresh} waits: window geometry is static under a quiescent
     plan, so the cycles lost inside a window are a counting formula;
   - {e bank drains}: the pass carries its own copy of [bank_free_at],
     so an element arriving while its bank is busy lands exactly at the
     bank's release (then slips over any refresh window it lands in);
   - {e consumed port slots}: element 0 may start at or below the port
     high-water mark.  That spin is closed-form only when the consumed
     slots above the stream's start are exactly the most recent span and
     that span is {e dense} — z = 1 and no internal conflict gaps, so
     every cycle from its first slot through the high-water mark is
     either consumed or inside a refresh window.  The probe then fails
     on every cycle through the mark (port or refresh) and resumes
     above it.  Anything less provable rejects the leap.

   Remaining obligations:

   1. no contention model (a stolen port cycle would stall the stream);
   2. the plan is {!Fault.quiescent} from the stream's start through a
      horizon past its {e actual} last access (so no stuck/scrubbed
      bank, no extra bank busy, no port spike, no refresh jitter can
      fire) — checked after the pass, because conflict drains can push
      the landing past the nominal [start + (count-1) * z] schedule;
   3. every per-element slip stays within [max_slip] failed attempts, so
      the cycle stepper would neither have tripped its progress guard
      nor polled its watchdog mid-access.

   On success the returned array holds each element's access cycle and
   the model state (bank busy lines, port slots, access/stall counters,
   access log) is exactly what the spin loop would have left behind —
   bit-for-bit, which the fuzz oracle stack cross-checks. *)

(* Refresh-window cycles in [0, q) under healthy geometry — valid only
   when the plan is quiescent over the range in question (no jitter). *)
let refresh_cycles_below (p : Mem_params.t) q =
  if p.refresh_duration <= 0 || p.refresh_period = max_int then 0
  else
    ((q / p.refresh_period) * p.refresh_duration)
    + max 0 ((q mod p.refresh_period) - (p.refresh_period - p.refresh_duration))

type refusal = Contended | Below_port_mark | Over_slip | Fault_window

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The O(banks) admission proof: no element of the stream ever meets a
   busy bank.  Element [e] addresses bank [(b0 + e * db) mod banks], a
   sequence with period [banks / gcd db banks], and no slip can make an
   element earlier than its nominal cycle [start + e * z], so two
   obligations cover every element:

   - each bank's first touch (the first [period] elements) finds it free
     at the nominal cycle;
   - a revisit, [period] elements later, comes at least
     [period * z >= bank_busy_cycles] cycles after the visit before it.

   Refresh slips only delay elements, and a slip delays every later
   element by at least as much, so gaps between visits never shrink.
   When this holds no element ever waits on a bank: the schedule is the
   nominal one slipped over refresh windows. *)
(* the bank step between consecutive elements, and the number of
   elements after which the bank sequence repeats *)
let bank_step t ~wstride =
  let nbanks = t.params.banks in
  let db = ((wstride mod nbanks) + nbanks) mod nbanks in
  (db, nbanks / gcd db nbanks)

let conflict_free t ~start ~count ~z ~word0 ~wstride =
  let nbanks = t.params.banks in
  let db, period = bank_step t ~wstride in
  (count <= period || period * z >= t.params.bank_busy_cycles)
  &&
  let n = min count period in
  let ok = ref true and e = ref 0 and b = ref (bank_of t ~word:word0) in
  while !ok && !e < n do
    if t.bank_free_at.(!b) > start + (!e * z) then ok := false;
    incr e;
    b := !b + db;
    if !b >= nbanks then b := !b - nbanks
  done;
  !ok

(* [entries.(e) <- first + (e - from) * step] for [e] in [from, upto),
   by accumulation.  Two interleaved sums, each stepping [2 * step], halve
   the chain of dependent float additions; every partial sum is an
   integer below 2^53 when [first] and [step] are integer-valued, so the
   values are exact and equal the stepper's own [enter.(e-1) +. z]. *)
let fill_affine entries ~from ~upto ~first ~step =
  let even = ref first and odd = ref (first +. step) in
  let step2 = step +. step in
  let e = ref from in
  while !e + 1 < upto do
    entries.(!e) <- !even;
    entries.(!e + 1) <- !odd;
    even := !even +. step2;
    odd := !odd +. step2;
    e := !e + 2
  done;
  if !e < upto then entries.(!e) <- !even

(* The schedule of a proven conflict-free stream starting above the port
   high-water mark: [start + e * z], each element slipped past any
   refresh window it lands in (a slip carries to every later element).
   The windows are found in closed form and each run between two slips
   is filled by accumulation, exact on these integer-valued floats.
   Returns the refresh cycles waited, or -1 when a slip exceeds
   [max_slip] (or refresh never ends: a window as long as its period). *)
let conflict_free_schedule (p : Mem_params.t) entries ~start ~count ~z
    ~max_slip =
  if p.refresh_duration <= 0 || p.refresh_period = max_int then begin
    fill_affine entries ~from:0 ~upto:count ~first:(float_of_int start)
      ~step:(float_of_int z);
    0
  end
  else if p.refresh_duration >= p.refresh_period then -1
  else begin
    let per = p.refresh_period in
    let lim = per - p.refresh_duration in
    (* element [e] of the current run sits at [g + (e - e0) * z] *)
    let e0 = ref 0 and g = ref start and waited = ref 0 in
    while !e0 < count do
      let ph = !g mod per in
      if ph >= lim then begin
        (* the run's first element lands in a window *)
        let w = per - ph in
        if w > max_slip then e0 := count + 1
        else begin
          waited := !waited + w;
          g := !g + w
        end
      end
      else begin
        (* the first later element at or past the next window's opening *)
        let opening = !g - ph + lim in
        let k = (opening - !g + z - 1) / z in
        let upto = min count (!e0 + k) in
        fill_affine entries ~from:!e0 ~upto ~first:(float_of_int !g)
          ~step:(float_of_int z);
        g := !g + ((upto - !e0) * z);
        e0 := upto
      end
    done;
    if !e0 > count then -1 else !waited
  end

(* The general pass: one iteration per element, resolving bank drains
   and the element-0 chase in closed form.  Fills [entries] and leaves
   the pass's bank lines in [t.scratch_banks]; returns the per-family
   waits or the refusal. *)
let admit_by_element t entries ~start ~count ~z ~word0 ~wstride ~max_slip =
  let p = t.params in
  let has_refresh = p.refresh_duration > 0 && p.refresh_period <> max_int in
  let rc lo hi =
    if has_refresh then refresh_cycles_below p hi - refresh_cycles_below p lo
    else 0
  in
  let hwm = t.port_hwm in
  let chaseable =
    t.nspans > 0 && t.last_span_dense
    &&
    let s = t.spans.(t.nspans - 1) in
    float_of_int start >= s.(0) && float_of_int hwm = s.(Array.length s - 1)
  in
  let nbanks = p.banks in
  let bfree = t.scratch_banks in
  Array.blit t.bank_free_at 0 bfree 0 nbanks;
  let port_st = ref 0 in
  let conflict_st = ref 0 in
  let refresh_st = ref 0 in
  (* conflict cycles between elements 1..count-1: any such gap breaks
     the denseness the next stream's chase would rely on *)
  let drift = ref 0 in
  let ok = ref true and refusal = ref Over_slip in
  let prev = ref 0 in
  let e = ref 0 in
  (* the loop below runs once per element, so it carries the bank
     index and the refresh phase incrementally — the common case (bank
     idle, no window) costs no division *)
  let b = ref (bank_of t ~word:word0) in
  let db, _ = bank_step t ~wstride in
  let per = p.refresh_period in
  let ph = ref 0 in
  (* cycle whose refresh phase [ph] currently holds *)
  let ph_at = ref 0 in
  while !ok && !e < count do
    let cand = if !e = 0 then start else !prev + z in
    (* consumed-slot chase: only element 0 can start at or below the
       high-water mark (every later candidate sits above this element's
       grant, which lands above the mark) *)
    let cand2 =
      if cand > hwm then cand
      else if !e = 0 && chaseable then begin
        let r = rc cand (hwm + 1) in
        port_st := !port_st + (hwm + 1 - cand - r);
        refresh_st := !refresh_st + r;
        hwm + 1
      end
      else begin
        ok := false;
        refusal := Below_port_mark;
        cand
      end
    in
    if !ok then begin
      if has_refresh then begin
        (if !e = 0 then ph := cand2 mod per
         else begin
           ph := !ph + (cand2 - !ph_at);
           while !ph >= per do
             ph := !ph - per
           done
         end);
        ph_at := cand2
      end;
      let bf = bfree.(!b) in
      let target = if bf > cand2 then bf else cand2 in
      let pht =
        if not has_refresh then 0
        else if target = cand2 then !ph
        else (!ph + (target - cand2)) mod per
      in
      let g =
        if has_refresh && pht >= per - p.refresh_duration then
          target + (per - pht)
        else target
      in
      if g - cand > max_slip then ok := false
      else begin
        (if g > cand2 then begin
           let r = rc cand2 g in
           refresh_st := !refresh_st + r;
           let c = g - cand2 - r in
           conflict_st := !conflict_st + c;
           if !e > 0 then drift := !drift + c
         end);
        bfree.(!b) <- g + p.bank_busy_cycles;
        entries.(!e) <- float_of_int g;
        prev := g;
        incr e;
        b := !b + db;
        if !b >= nbanks then b := !b - nbanks
      end
    end
  done;
  if !ok then Ok (!port_st, !conflict_st, !refresh_st, !drift = 0)
  else Error !refusal

let admit_stream t ~start ~count ~z ~word0 ~wstride ~max_slip =
  if count <= 0 || z < 1 || start < 0 then
    invalid_arg "Memory.admit_stream: empty stream, sub-unit rate or negative start";
  if not (Contention.is_none t.contention) then Error Contended
  else begin
    let p = t.params in
    let entries = Array.create_float count in
    let proven =
      start > t.port_hwm
      && conflict_free t ~start ~count ~z ~word0 ~wstride
    in
    let pass =
      if proven then
        let waited =
          conflict_free_schedule p entries ~start ~count ~z ~max_slip
        in
        if waited < 0 then Error Over_slip else Ok (0, 0, waited, true)
      else admit_by_element t entries ~start ~count ~z ~word0 ~wstride ~max_slip
    in
    match pass with
    | Error _ as refused -> refused
    | Ok (port_st, conflict_st, refresh_st, no_drift) ->
        let last = int_of_float entries.(count - 1) in
        (* the pass assumed a quiescent plan (no extra busy cycles, no
           jitter, no faulted banks, no stolen ports) at every cycle it
           touched — verify through the actual landing, which conflict
           drains can push past the nominal schedule *)
        let hi = Mem_params.leap_horizon p ~start:last ~span:0 in
        if not (Fault.quiescent t.faults ~lo:start ~hi) then Error Fault_window
        else begin
          (* commit: side effects identical to the spin loop's.  Port
             slots are recorded as one sorted span instead of per-element
             hash-table entries.  A proven stream's bank lines are set
             from its last visit to each bank, all within its final
             period; the element pass's lines are its own copy, written
             back wholesale *)
          (if proven then begin
             let nbanks = p.banks in
             let db, period = bank_step t ~wstride in
             let from = max 0 (count - period) in
             let b = ref (bank_of t ~word:(word0 + (from * wstride))) in
             for e = from to count - 1 do
               t.bank_free_at.(!b) <- int_of_float entries.(e) + p.bank_busy_cycles;
               b := !b + db;
               if !b >= nbanks then b := !b - nbanks
             done
           end
           else Array.blit t.scratch_banks 0 t.bank_free_at 0 p.banks);
          (match t.log with
          | Some r ->
              for e = 0 to count - 1 do
                r := (int_of_float entries.(e), word0 + (e * wstride)) :: !r
              done
          | None -> ());
          if t.nspans = Array.length t.spans then
            t.spans <- Array.append t.spans (Array.make (max 8 t.nspans) [||]);
          t.spans.(t.nspans) <- entries;
          t.nspans <- t.nspans + 1;
          t.port_hwm <- last;
          t.last_span_dense <- z = 1 && no_drift;
          t.accesses <- t.accesses + count;
          t.port_stalls <- t.port_stalls + port_st;
          t.conflict_stalls <- t.conflict_stalls + conflict_st;
          t.refresh_stalls <- t.refresh_stalls + refresh_st;
          Ok entries
        end
  end

let stats_accesses t = t.accesses
let stats_conflict_stalls t = t.conflict_stalls
let stats_refresh_stalls t = t.refresh_stalls
let stats_port_stalls t = t.port_stalls
let stats_fault_stalls t = t.fault_stalls
