open Convex_isa
open Convex_machine
open Convex_memsys
open Convex_fault
open Macs_util

type event = {
  instr : Instr.t;
  strip : int;
  issue : float;
  start : float;
  first_result : float;
  completion : float;
}

type stats = {
  cycles : float;
  elements : int;
  instructions : int;
  strips : int;
  mem_accesses : int;
  bank_conflict_stalls : int;
  refresh_stalls : int;
  port_stalls : int;
  fault_stalls : int;
  pipe_busy : (string * float) list;
}

type result = { stats : stats; events : event list }

(* An executing (or executed) vector instruction.  [enter.(e)] is the cycle
   at which element [e] entered the first stage of the function pipe;
   results stream out [y] cycles later.  [source_unit] is the function unit
   ultimately pacing this instruction's element stream: itself if it starts
   unchained, the producer's source if it chains — tailgate bubbles of
   chained consumers are charged back to that unit (back-pressure). *)
type inflight = {
  instr : Instr.t;
  enter : float array;
  y : float;
  completion : float;
  source_unit : int;
  unit_id : int;
  rmask : int;
      (* per-pair vector-read counts, 8 bits per pair id — lets the
         pair-port scan test chime-concurrent usage without walking
         register lists *)
  wmask : int;  (* per-pair vector-write counts, same packing *)
}

(* packed per-pair register counts: byte [pid] of the int counts the
   registers of pair [pid] in the list *)
let pair_mask rs =
  List.fold_left (fun m r -> m + (1 lsl (8 * Reg.pair_id r))) 0 rs

(* A growable set of in-flight instructions: the active windows, one
   register's readers, one instruction's producers.  Kept in arrays so
   that the per-instruction pruning allocates nothing. *)
type bag = { mutable items : inflight array; mutable len : int }

let no_inflight =
  { instr = Instr.Smovvl; enter = [| 0.0 |]; y = 0.0; completion = 0.0;
    source_unit = 0; unit_id = 0; rmask = 0; wmask = 0 }

let bag () = { items = Array.make 4 no_inflight; len = 0 }

let push b w =
  if b.len = Array.length b.items then
    b.items <- Array.append b.items (Array.make b.len no_inflight);
  b.items.(b.len) <- w;
  b.len <- b.len + 1

let clear b =
  Array.fill b.items 0 b.len no_inflight;
  b.len <- 0

(* keep only the instructions still completing after [t], in order *)
let keep_live b t =
  let j = ref 0 in
  for k = 0 to b.len - 1 do
    let w = b.items.(k) in
    if w.completion > t then begin
      b.items.(!j) <- w;
      incr j
    end
  done;
  Array.fill b.items !j (b.len - !j) no_inflight;
  b.len <- !j

(* [Float.max] on the simulator's cycles, which are never NaN and never
   -0.0: the same answer, inlined, with no boxed float *)
let[@inline] fmax (a : float) b = if b > a then b else a

(* How a vector instruction addresses memory. *)
type access =
  | No_access
  | Direct of Instr.mem  (** one word per element, affine in the element *)
  | Indexed of Instr.mem  (** gather/scatter: data-dependent words *)

(* What the steppers need of a vector instruction that does not change
   from strip to strip, decoded once per run. *)
type vinfo = {
  pipe : Pipe.t;
  timing : Timing.params;
  units_lo : int;  (** the pipe's first unit instance *)
  units_n : int;
  vsrcs : int array;  (** vector registers read *)
  vdsts : int array;  (** vector registers written *)
  swrites : int array;  (** scalar registers written (a reduction) *)
  vrmask : int;  (** {!pair_mask} of the reads *)
  vwmask : int;  (** {!pair_mask} of the writes *)
  reads_merge : bool;
  writes_merge : bool;
  access : access;
  loads : bool;  (** waits on overlapping outstanding stores *)
  stores : bool;  (** becomes an outstanding store *)
}

type decoded = {
  di : Instr.t;  (** the instruction itself *)
  sreads : int array;  (** scalar registers read *)
  array_base : int;  (** base word of the referenced array, 0 when none *)
  vinfo : vinfo option;  (** [None] for a scalar instruction *)
}

(* the clocks every instruction moves, in an all-float record so that
   updating them boxes nothing *)
type clock = { mutable issue_front : float; mutable finish : float }

(* latency of a scalar load (cache) and a scalar FP ALU operation *)
let scalar_load_latency = 4.0
let scalar_fp_latency = 3.0

let result_at w e =
  let n = Array.length w.enter in
  w.enter.(min e (n - 1)) +. w.y

(* default spin budget of the memory-progress guard, in cycles per access *)
let default_guard = 1_000_000

(* watchdog spin-check interval in acquire_mem: frequent enough to cancel
   a stalled access long before the livelock guard trips, rare enough to
   stay off the healthy path's profile.  Shared with the fast path so a
   leap can prove it never absorbs a wait that would have polled. *)
let watchdog_spin_mask = Fastpath.spin_check_interval - 1

let run ?(machine = Machine.c240) ?layout ?(contention = Contention.none)
    ?(faults = Fault.none) ?(guard = default_guard) ?watchdog ?access_log
    ?(trace = false) ?(fidelity = Fastpath.Tiered) (job : Job.t) =
  let layout =
    match layout with
    | Some l -> l
    | None -> Layout.build (List.map (fun a -> (a, 8192)) (Job.arrays job))
  in
  let memory =
    Memory.create ~contention ~faults ?log:access_log machine.memory
  in
  let healthy = Fault.is_none faults in
  let watched = Option.is_some watchdog in
  (* function unit instances: load/store units first, then add, then
     multiply *)
  let lsu_n = machine.pipes.load_store in
  let add_n = machine.pipes.add_unit in
  let mul_n = machine.pipes.multiply_unit in
  let n_units = lsu_n + add_n + mul_n in
  let unit_used = Array.make n_units false in
  let unit_next = Array.make n_units 0.0 in
  let units_of = function
    | Pipe.Load_store -> (0, lsu_n)
    | Pipe.Add_unit -> (lsu_n, add_n)
    | Pipe.Multiply_unit -> (lsu_n + add_n, mul_n)
  in
  let unit_last_start = Array.make n_units 0.0 in
  let pipe_busy = Array.make Pipe.count 0.0 in
  let vwriter : inflight option array = Array.make Reg.vector_count None in
  let vm_writer : inflight option ref = ref None in
  let vreaders = Array.init Reg.vector_count (fun _ -> bag ()) in
  let sready = Array.make Reg.scalar_count 0.0 in
  let clk = { issue_front = 0.0; finish = 0.0 } in
  let active = bag () in
  let producers = bag () in
  let deps = Fastpath.make_deps () in
  (* outstanding stores as (lo_word, hi_word, completion): a later load
     overlapping the range must wait — memory RAW dependences, which
     serialize LFK2's ICCG passes and LFK6's recurrence *)
  let stores : (int * int * float) list ref = ref [] in
  let n_stores = ref 0 in
  let store_dep ~lo ~hi =
    List.fold_left
      (fun acc (l, h, c) -> if h >= lo && l <= hi then fmax acc c else acc)
      0.0 !stores
  in
  let note_store ~lo ~hi ~completion ~now =
    if !n_stores > 64 then begin
      stores := List.filter (fun (_, _, c) -> c > now) !stores;
      n_stores := List.length !stores
    end;
    stores := (lo, hi, completion) :: !stores;
    incr n_stores
  in
  let events = ref [] in
  let instructions = ref 0 in
  let strips = ref 0 in
  (* call sites guard on [trace] themselves, so the non-traced hot loop
     never even constructs the event record *)
  let record ev = events := ev :: !events in
  let note_finish t = if t > clk.finish then clk.finish <- t in

  let check_watchdog cycle =
    match watchdog with
    | None -> ()
    | Some w -> (
        match w ~cycle with
        | Some e -> Macs_error.raise_error e
        | None -> ())
  in

  let acquire_mem ~earliest ~word =
    let c = ref (int_of_float (Float.ceil earliest)) in
    let spins = ref 0 in
    while not (Memory.try_access memory ~cycle:!c ~word) do
      incr c;
      incr spins;
      if !spins land watchdog_spin_mask = 0 then
        check_watchdog (float_of_int !c);
      if !spins > guard then
        Macs_error.raise_error
          (if Fault.is_none faults then
             Macs_error.livelock ~site:"Sim.run" ~cycle:!c
               ~pending:active.len ~word ()
           else
             Macs_error.stall_out ~site:"Sim.run" ~cycle:!c
               ~pending:active.len ~plan:faults.Fault.name)
    done;
    float_of_int !c
  in

  let decode i =
    let regs l = Array.of_list l in
    let mem = Instr.mem_ref i in
    let array_base =
      match mem with Some m -> Layout.base_of layout m.array | None -> 0
    in
    let vinfo =
      match Instr.vclass_of i with
      | None -> None
      | Some cls ->
          let pipe = Pipe.of_vclass cls in
          let units_lo, units_n = units_of pipe in
          let srcs = Instr.reads_v i and dsts = Instr.writes_v i in
          let indexed =
            match i with Instr.Vgather _ | Instr.Vscatter _ -> true | _ -> false
          in
          Some
            {
              pipe;
              timing = Timing.get machine.timing cls;
              units_lo;
              units_n;
              vsrcs = regs (List.map Reg.v_index srcs);
              vdsts = regs (List.map Reg.v_index dsts);
              swrites = regs (List.map Reg.s_index (Instr.writes_s i));
              vrmask = pair_mask srcs;
              vwmask = pair_mask dsts;
              reads_merge = Instr.reads_merge i;
              writes_merge = Instr.writes_merge i;
              access =
                (match mem with
                | Some m when Instr.is_vector_memory i ->
                    if indexed then Indexed m else Direct m
                | _ -> No_access);
              loads =
                (match i with Instr.Vld _ | Instr.Vgather _ -> true | _ -> false);
              stores =
                (match i with
                | Instr.Vst _ | Instr.Vscatter _ -> true
                | _ -> false);
            }
    in
    {
      di = i;
      sreads = regs (List.map Reg.s_index (Instr.reads_s i));
      array_base;
      vinfo;
    }
  in

  let word_of (seg : Job.segment) d (m : Instr.mem) ~base_index ~element =
    let shift =
      match seg.shifts with
      | [] -> 0
      | shifts -> (
          match List.assoc_opt m.array shifts with Some s -> s | None -> 0)
    in
    d.array_base + m.offset + ((base_index + element) * m.stride) + shift
  in

  let sreads_ready d =
    let acc = ref 0.0 in
    for k = 0 to Array.length d.sreads - 1 do
      acc := fmax !acc sready.(d.sreads.(k))
    done;
    !acc
  in

  (* ---- scalar instructions ---- *)
  let exec_scalar (seg : Job.segment) ~base_index ~strip d =
    let i = d.di in
    let t0 = fmax clk.issue_front (sreads_ready d) in
    let fin =
      match i with
      | Instr.Sld { dst; src } ->
          let word = word_of seg d src ~base_index ~element:0 in
          let t0 = fmax t0 (store_dep ~lo:word ~hi:word) in
          let t_acc = acquire_mem ~earliest:t0 ~word in
          sready.(Reg.s_index dst) <- t_acc +. scalar_load_latency;
          clk.issue_front <- t_acc +. float_of_int machine.scalar_memory_cycles;
          t_acc +. scalar_load_latency
      | Sst { dst; _ } ->
          let word = word_of seg d dst ~base_index ~element:0 in
          let t_acc = acquire_mem ~earliest:t0 ~word in
          clk.issue_front <- t_acc +. float_of_int machine.scalar_memory_cycles;
          note_store ~lo:word ~hi:word ~completion:(t_acc +. 1.0) ~now:t0;
          t_acc +. 1.0
      | Sbin { dst; _ } ->
          sready.(Reg.s_index dst) <- t0 +. scalar_fp_latency;
          clk.issue_front <- t0 +. float_of_int machine.scalar_cycles;
          t0 +. scalar_fp_latency
      | Sop _ | Smovvl | Sbranch ->
          clk.issue_front <- t0 +. float_of_int machine.scalar_cycles;
          t0 +. float_of_int machine.scalar_cycles
      | Vld _ | Vst _ | Vgather _ | Vscatter _ | Vbin _ | Vneg _ | Vsqrt _
      | Vcmp _ | Vmerge _ | Vsum _ ->
          invalid_arg "Sim.exec_scalar: vector instruction"
    in
    note_finish fin;
    if trace then
      record
        { instr = i; strip; issue = t0; start = t0; first_result = fin;
          completion = fin }
  in

  (* ---- vector instructions ---- *)
  let exec_vector (seg : Job.segment) ~base_index ~strip ~vl d v =
    let i = d.di in
    let pipe = v.pipe in
    (* choose the least-busy unit instance of the pipe *)
    let u = ref v.units_lo in
    for id = v.units_lo + 1 to v.units_lo + v.units_n - 1 do
      if unit_next.(id) < unit_next.(!u) then u := id
    done;
    let u = !u in
    (* in-order issue with bounded run-ahead: issue of this instruction
       cannot begin before the previous instruction on the same unit has
       started *)
    let issue_t = fmax clk.issue_front unit_last_start.(u) in
    (* a slowed function pipe streams below rate and pays extra issue
       cycles.  Both costs are charged at the cycle they are paid — the
       startup at issue, the per-element rate at each element's entry — so
       a transient plan whose window closes mid-run stops injecting from
       that cycle on and the stream recovers to the healthy rate.  The
       healthy path must not pay for the check. *)
    let p =
      if healthy then v.timing
      else
        {
          v.timing with
          Timing.x =
            v.timing.x
            + Fault.pipe_extra_startup faults
                ~cycle:(int_of_float issue_t) pipe;
        }
    in
    let z_at t =
      if healthy then p.Timing.z
      else p.Timing.z *. Fault.pipe_z_factor faults ~cycle:(int_of_float t) pipe
    in
    let arrive = issue_t +. float_of_int p.x in
    clk.issue_front <- arrive;
    let sdep = sreads_ready d in
    (* dependences: chained producers lift by their result latency, WAW
       and WAR hazards by one cycle *)
    clear producers;
    Array.iter
      (fun r -> match vwriter.(r) with Some w -> push producers w | None -> ())
      v.vsrcs;
    (if v.reads_merge then
       match !vm_writer with Some w -> push producers w | None -> ());
    Fastpath.clear_deps deps;
    for k = 0 to producers.len - 1 do
      let w = producers.items.(k) in
      Fastpath.add_dep deps w.enter w.y
    done;
    for k = 0 to Array.length v.vdsts - 1 do
      match vwriter.(v.vdsts.(k)) with
      | Some w -> Fastpath.add_dep deps w.enter 1.0
      | None -> ()
    done;
    for k = 0 to Array.length v.vdsts - 1 do
      let readers = vreaders.(v.vdsts.(k)) in
      for j = 0 to readers.len - 1 do
        Fastpath.add_dep deps readers.items.(j).enter 1.0
      done
    done;
    let pipe_c =
      if unit_used.(u) then unit_next.(u) +. float_of_int p.b else 0.0
    in
    let word0 =
      match v.access with
      | Direct m -> word_of seg d m ~base_index ~element:0
      | No_access | Indexed _ -> 0
    in
    (* the words the instruction may touch, for memory RAW dependences;
       data-dependent addresses conservatively cover the array *)
    let mem_lo, mem_hi =
      match v.access with
      | No_access -> (0, -1)
      | Indexed _ -> (d.array_base, d.array_base + 0xFFFF)
      | Direct m ->
          let w1 = word0 + ((vl - 1) * m.stride) in
          (min word0 w1, max word0 w1)
    in
    let raw_dep =
      if v.loads && mem_lo <= mem_hi then store_dep ~lo:mem_lo ~hi:mem_hi
      else 0.0
    in
    let t0 =
      fmax raw_dep
        (fmax arrive (fmax pipe_c (fmax (Fastpath.ready_at deps 0) sdep)))
    in
    (* Register-pair port limits: at most [pair_read_limit] reads and
       [pair_write_limit] writes per pair among chime-concurrent
       instructions.  Two instructions are chime-concurrent when their
       element-entry windows overlap — tailgating instructions in
       successive chimes reuse pairs freely.  A violation delays the start
       past the end of the earliest conflicting entry window. *)
    keep_live active t0;
    let entry_end w = w.enter.(Array.length w.enter - 1) in
    let my_span = z_at t0 *. float_of_int (max 0 (vl - 1)) in
    let my_rmask = v.vrmask in
    let my_wmask = v.vwmask in
    let pair_conflict_until t0 =
      let my_end = t0 +. my_span in
      (* accumulate packed per-pair usage over chime-concurrent windows
         in one pass; the per-window walk repeats only on the rare
         violation path *)
      let tr = ref my_rmask in
      let tw = ref my_wmask in
      for k = 0 to active.len - 1 do
        let w = active.items.(k) in
        if entry_end w >= t0 && w.enter.(0) <= my_end then begin
          tr := !tr + w.rmask;
          tw := !tw + w.wmask
        end
      done;
      let viol = ref 0 in
      for pid = 0 to Reg.pair_count - 1 do
        if
          ((my_rmask lsr (8 * pid)) land 0xff)
          + ((my_wmask lsr (8 * pid)) land 0xff)
          > 0
          && ((!tr lsr (8 * pid)) land 0xff > machine.pair_read_limit
             || (!tw lsr (8 * pid)) land 0xff > machine.pair_write_limit)
        then viol := !viol lor (1 lsl pid)
      done;
      if !viol = 0 then None
      else begin
        let best = ref Float.infinity in
        for k = 0 to active.len - 1 do
          let w = active.items.(k) in
          if entry_end w >= t0 && w.enter.(0) <= my_end then begin
            let touches = ref false in
            for pid = 0 to Reg.pair_count - 1 do
              if
                (!viol lsr pid) land 1 = 1
                && ((w.rmask lsr (8 * pid)) land 0xff > 0
                   || (w.wmask lsr (8 * pid)) land 0xff > 0)
              then touches := true
            done;
            if !touches && entry_end w < !best then best := entry_end w
          end
        done;
        if !best = Float.infinity then None else Some !best
      end
    in
    let rec settle t0 guard =
      if guard > 64 then t0
      else
        match pair_conflict_until t0 with
        | None -> t0
        | Some t when t +. 1.0 > t0 -> settle (t +. 1.0) (guard + 1)
        | Some _ -> t0 +. 1.0
    in
    let t0 = settle t0 0 in
    (* back-pressure: a chained consumer charges its bubble to the ultimate
       stream source unit (unless that is its own unit, where the tailgate
       bubble already applies) *)
    let binding_producer = ref None in
    for k = 0 to producers.len - 1 do
      let w = producers.items.(k) in
      if w.completion > t0 then
        match !binding_producer with
        | Some best when result_at w 0 <= result_at best 0 -> ()
        | _ -> binding_producer := Some w
    done;
    let source_unit =
      match !binding_producer with
      | Some w when w.source_unit <> u ->
          unit_next.(w.source_unit) <-
            unit_next.(w.source_unit) +. float_of_int p.b;
          w.source_unit
      | _ -> u
    in
    (* element streaming: in tiered mode, first try to advance the whole
       stream in one analytical leap — sound only when Fastpath can prove
       the cycle loop below would have produced exactly the closed-form
       schedule (see DESIGN §14); any failed obligation falls back to
       stepping the seam cycle by cycle *)
    let leap =
      match fidelity with
      | Fastpath.Cycle -> None
      | Fastpath.Tiered ->
          let stream =
            match v.access with
            | No_access -> Fastpath.Compute
            | Indexed _ -> Fastpath.Opaque
            | Direct m -> Fastpath.Affine { word0; wstride = m.stride }
          in
          Fastpath.try_leap ~memory ~mem_params:machine.memory ~faults
            ~guard ~watchdog_armed:watched ~t0 ~vl ~z:(z_at t0)
            ~deps stream
    in
    let enter =
      match leap with
      | Some entries -> entries
      | None ->
          let enter = Array.make vl t0 in
          let place e earliest =
            match v.access with
            | No_access -> earliest
            | Direct m ->
                acquire_mem ~earliest
                  ~word:(word_of seg d m ~base_index ~element:e)
            | Indexed m ->
                (* the timing model carries no register values: indexed
                   elements address synthetic uniformly-distributed words
                   (a mixed integer hash, so banks are genuinely random),
                   the statistically faithful stand-in for a
                   data-dependent gather/scatter pattern *)
                let h = (e + (base_index * 131) + m.offset) * 0x9E3779B1 in
                let h = h land 0x3FFFFFFF in
                let h = h lxor (h lsr 15) in
                let h = h * 0x85EBCA77 land 0x3FFFFFFF in
                let h = h lxor (h lsr 13) in
                acquire_mem ~earliest ~word:(d.array_base + (h land 0xFFFF))
          in
          enter.(0) <- place 0 t0;
          for e = 1 to vl - 1 do
            let t =
              Float.max
                (enter.(e - 1) +. z_at enter.(e - 1))
                (Fastpath.ready_at deps e)
            in
            enter.(e) <- place e t
          done;
          enter
    in
    let completion = enter.(vl - 1) +. float_of_int p.y +. 1.0 in
    if v.stores && mem_lo <= mem_hi then
      note_store ~lo:mem_lo ~hi:mem_hi ~completion ~now:t0;
    let me = { instr = i; enter; y = float_of_int p.y; completion;
               source_unit; unit_id = u;
               rmask = v.vrmask; wmask = v.vwmask } in
    let tail_z = z_at enter.(vl - 1) in
    unit_used.(u) <- true;
    unit_next.(u) <- enter.(vl - 1) +. tail_z;
    unit_last_start.(u) <- t0;
    pipe_busy.(Pipe.index pipe) <-
      pipe_busy.(Pipe.index pipe) +. (enter.(vl - 1) +. tail_z -. enter.(0));
    Array.iter
      (fun r ->
        vwriter.(r) <- Some me;
        clear vreaders.(r))
      v.vdsts;
    Array.iter
      (fun r ->
        keep_live vreaders.(r) t0;
        push vreaders.(r) me)
      v.vsrcs;
    Array.iter (fun r -> sready.(r) <- completion) v.swrites;
    if v.writes_merge then vm_writer := Some me;
    push active me;
    note_finish completion;
    if trace then
      record
        { instr = i; strip; issue = issue_t; start = t0;
          first_result = enter.(0) +. me.y; completion }
  in

  let exec_instr seg ~base_index ~strip ~vl d =
    if watched then check_watchdog (fmax clk.issue_front clk.finish);
    incr instructions;
    match d.vinfo with
    | Some v -> exec_vector seg ~base_index ~strip ~vl d v
    | None -> exec_scalar seg ~base_index ~strip d
  in

  let execute () =
    let body = List.map decode job.body in
    List.iter
      (fun (seg : Job.segment) ->
        let pro_vl = min seg.vl machine.max_vl in
        List.iter
          (fun i ->
            exec_instr seg ~base_index:seg.base ~strip:!strips ~vl:pro_vl
              (decode i))
          seg.prologue;
        let step = match job.mode with
          | Job.Vector -> machine.max_vl
          | Job.Scalar -> 1
        in
        let remaining = ref seg.vl in
        let base = ref seg.base in
        while !remaining > 0 do
          let vl = min step !remaining in
          List.iter (exec_instr seg ~base_index:!base ~strip:!strips ~vl) body;
          incr strips;
          base := !base + vl;
          remaining := !remaining - vl
        done;
        List.iter
          (fun i ->
            exec_instr seg ~base_index:seg.base ~strip:(!strips - 1)
              ~vl:pro_vl (decode i))
          seg.epilogue)
      job.segments
  in
  let result =
    match execute () with
    | exception Macs_error.Error e -> Error e
    | () ->
        let stats =
          {
            cycles = clk.finish;
            elements = Job.total_elements job;
            instructions = !instructions;
            strips = !strips;
            mem_accesses = Memory.stats_accesses memory;
            bank_conflict_stalls = Memory.stats_conflict_stalls memory;
            refresh_stalls = Memory.stats_refresh_stalls memory;
            port_stalls = Memory.stats_port_stalls memory;
            fault_stalls = Memory.stats_fault_stalls memory;
            pipe_busy =
              List.map
                (fun pipe -> (Pipe.name pipe, pipe_busy.(Pipe.index pipe)))
                Pipe.all;
          }
        in
        Ok { stats; events = List.rev !events }
  in
  Memory.release memory;
  result

let run_exn ?machine ?layout ?contention ?faults ?watchdog ?access_log ?trace
    ?fidelity job =
  Macs_error.of_result
    (run ?machine ?layout ?contention ?faults ?watchdog ?access_log ?trace
       ?fidelity job)

let cpl r = r.stats.cycles /. float_of_int r.stats.elements

let cpf r ~flops_per_iteration =
  if flops_per_iteration <= 0 then invalid_arg "Sim.cpf: nonpositive flops";
  cpl r /. float_of_int flops_per_iteration

let pp_event fmt (e : event) =
  Format.fprintf fmt "%-30s strip=%d issue=%.1f start=%.1f first=%.1f done=%.1f"
    (Asm.print_instr e.instr) e.strip e.issue e.start e.first_result
    e.completion
