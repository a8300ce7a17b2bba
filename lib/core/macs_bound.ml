open Convex_isa
open Convex_machine

type chime_cost = {
  chime : Chime.t;
  cycles : float;
  masked : bool;
  refresh : bool;
  overlap_credit : float;
}

type result = {
  cycles : float;
  cpl : float;
  vl : int;
  chimes : chime_cost list;
}

let long_z ~machine i =
  match Instr.vclass_of i with
  | Some cls -> (Timing.get machine.Machine.timing cls).z > 1.0
  | None -> false

(* Does any other instruction in the loop use the same pipe as [i]?  The
   Table 1 footnote: a long operation's extra cycles are masked by other
   instructions only if no resource conflict exists. *)
let pipe_conflict ~machine:_ instrs i =
  let pipe = Pipe.of_instr i in
  match pipe with
  | None -> false
  | Some p ->
      List.exists (fun j -> j != i && Pipe.of_instr j = Some p) instrs

(* The pipe of the slowest long operation in a chime: its drain occupies
   that pipe alone, so only later work on the same pipe must wait for it. *)
let drain_pipe ~machine longs =
  let z i =
    match Instr.vclass_of i with
    | Some cls -> (Timing.get machine.Machine.timing cls).Timing.z
    | None -> 0.0
  in
  match longs with
  | [] -> None
  | i :: rest ->
      let slowest =
        List.fold_left (fun a j -> if z j > z a then j else a) i rest
      in
      Pipe.of_instr slowest

let chime_cost ~machine ~vl ~all_vector (c : Chime.t) =
  let vlf = float_of_int vl in
  let b = float_of_int (Chime.bubble_sum ~machine c) in
  let zmax = Chime.z_max ~machine c in
  let longs = List.filter (long_z ~machine) c.instrs in
  let only_long = longs <> [] && List.length longs = List.length c.instrs in
  let excess = (zmax -. 1.0) *. vlf in
  if only_long then
    (* drain chime: base VL overlaps neighbours, excess remains *)
    ( { chime = c; cycles = excess +. b; masked = true; refresh = false;
        overlap_credit = 0.0 },
      Option.map (fun p -> (p, excess)) (drain_pipe ~machine longs) )
  else
    let exposed =
      List.exists (fun i -> pipe_conflict ~machine all_vector i) longs
    in
    (* a long-Z drain hides behind the load/store pipe only when the
       chime is memory-paced and no other instruction competes for its
       pipe *)
    let z =
      if longs <> [] && Chime.has_memory c && not exposed then 1.0 else zmax
    in
    let drain =
      if z > 1.0 then
        Option.map (fun p -> (p, excess)) (drain_pipe ~machine longs)
      else None
    in
    ( { chime = c; cycles = (z *. vlf) +. b; masked = false; refresh = false;
        overlap_credit = 0.0 },
      drain )

(* Mark chimes belonging to maximal cyclic runs of >= 4 successive memory
   chimes; masked chimes are transparent (skipped) when forming runs. *)
let mark_refresh chime_costs =
  let visible =
    List.filteri (fun _ (cc : chime_cost) -> not cc.masked) chime_costs
    |> List.map (fun (cc : chime_cost) -> Chime.has_memory cc.chime)
  in
  let n = List.length visible in
  if n = 0 then chime_costs
  else
    let arr = Array.of_list visible in
    let in_run = Array.make n false in
    if Array.for_all Fun.id arr then Array.fill in_run 0 n true
    else begin
      (* walk the doubled sequence to catch runs wrapping the loop end *)
      let run_start = ref None in
      for idx = 0 to (2 * n) - 1 do
        let i = idx mod n in
        if arr.(i) then begin
          if !run_start = None then run_start := Some idx
        end
        else begin
          (match !run_start with
          | Some s when idx - s >= 4 ->
              for j = s to idx - 1 do
                in_run.(j mod n) <- true
              done
          | _ -> ());
          run_start := None
        end
      done;
      (* a run still open at the end of the doubled walk was handled by
         the all-memory case above *)
      ()
    end;
    let k = ref 0 in
    List.map
      (fun (cc : chime_cost) ->
        if cc.masked then cc
        else begin
          let flagged = in_run.(!k) in
          incr k;
          { cc with refresh = flagged }
        end)
      chime_costs

(* A long operation's drain occupies only its own pipe: chimes that
   follow without touching that pipe execute underneath the drain and
   must not be charged again, while the next same-pipe chime's wait is
   already covered by the drain charge itself.  Credit each drained
   excess against the following non-conflicting chimes, which makes the
   charge for the span [max(drain, sum of overlapped chimes)] instead of
   their sum.  The walk wraps past the loop end because the bound models
   the steady state: the functional units persist across strips, so the
   next strip's chimes stream under this strip's drain exactly as the
   current strip's do.  Soundness against the MAC side of the hierarchy
   is preserved regardless of wrapping — each drain credits at most its
   own excess and each chime absorbs at most its own cost, so the total
   never falls below the Z=1 cost of the schedule. *)
let apply_drain_overlap ~factor costs drains =
  let arr = Array.of_list (List.combine costs drains) in
  let n = Array.length arr in
  let eff =
    Array.map
      (fun ((cc : chime_cost), _) ->
        cc.cycles *. if cc.refresh then factor else 1.0)
      arr
  in
  let credit = Array.make n 0.0 in
  for i = 0 to n - 1 do
    match snd arr.(i) with
    | None -> ()
    | Some (pipe, excess) ->
        (* same-pipe chimes wait out the drain and are charged in full
           (the drain charge covers their wait); every other chime whose
           pipe gate was satisfied during the drain streams underneath it
           or tailgates the waiter, so its serial charge is credited
           until the drain capacity runs out *)
        let remaining = ref excess in
        let k = ref 1 in
        while !k < n && !remaining > 0.0 do
          let j = (i + !k) mod n in
          let (cc : chime_cost), _ = arr.(j) in
          let uses_pipe =
            List.exists
              (fun ins -> Pipe.of_instr ins = Some pipe)
              cc.chime.Chime.instrs
          in
          if not uses_pipe then begin
            let avail = eff.(j) -. credit.(j) in
            let c = Float.min avail !remaining in
            if c > 0.0 then begin
              credit.(j) <- credit.(j) +. c;
              remaining := !remaining -. c
            end
          end;
          incr k
        done
  done;
  List.mapi
    (fun i ((cc : chime_cost), _) -> { cc with overlap_credit = credit.(i) })
    (Array.to_list arr)

let memory_paced ~machine chimes =
  chimes <> []
  && List.for_all
       (fun (c : Chime.t) ->
         Chime.has_memory c
         || (c.instrs <> [] && List.for_all (long_z ~machine) c.instrs))
       chimes

let compute_of_chimes ~machine ~vl instrs chimes =
  let all_vector = List.filter Instr.is_vector instrs in
  let costed = List.map (chime_cost ~machine ~vl ~all_vector) chimes in
  let costs = mark_refresh (List.map fst costed) in
  let drains = List.map snd costed in
  let factor = Mem_params.refresh_factor machine.Machine.memory in
  let costs = apply_drain_overlap ~factor costs drains in
  let cycles =
    List.fold_left
      (fun acc (cc : chime_cost) ->
        acc
        +. (cc.cycles *. if cc.refresh then factor else 1.0)
        -. cc.overlap_credit)
      0.0 costs
  in
  { cycles; cpl = cycles /. float_of_int vl; vl; chimes = costs }

let compute ~machine instrs =
  let vl = machine.Machine.max_vl in
  if vl <= 0 then invalid_arg "Macs_bound.compute: nonpositive vl";
  let chimes = Chime.partition ~machine instrs in
  compute_of_chimes ~machine ~vl instrs chimes

let f_only ~machine instrs =
  compute ~machine
    (List.filter (fun i -> not (Instr.is_vector_memory i)) instrs)

let m_only ~machine instrs =
  compute ~machine
    (List.filter (fun i -> not (Instr.is_vector_fp i)) instrs)

let pp fmt r =
  Format.fprintf fmt "@[<v>MACS bound: %.2f cycles / %d elements = %.3f CPL"
    r.cycles r.vl r.cpl;
  List.iteri
    (fun i (cc : chime_cost) ->
      Format.fprintf fmt "@,chime %d: %.2f cycles%s%s%s (%d instrs)" (i + 1)
        cc.cycles
        (if cc.masked then ", masked" else "")
        (if cc.refresh then ", refresh" else "")
        (if cc.overlap_credit > 0.0 then
           Printf.sprintf ", -%.2f drain overlap" cc.overlap_credit
         else "")
        (Chime.instr_count cc.chime))
    r.chimes;
  Format.fprintf fmt "@]"
