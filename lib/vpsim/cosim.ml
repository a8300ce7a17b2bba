open Convex_machine
open Convex_fault
open Macs_util

type access = { cycle : int; word : int }

type stream = {
  name : string;
  accesses : access list;
  solo_cycles : float;
}

type cpu_outcome = { stream : stream; delay : int; slowdown : float }
type t = { cpus : cpu_outcome list; average_slowdown : float }

let stream_of_job ?(machine = Machine.c240) ?faults ~name job =
  let log = ref [] in
  let r = Sim.run_exn ~machine ?faults ~access_log:log job in
  let accesses =
    !log
    |> List.rev_map (fun (cycle, word) -> { cycle; word })
    |> List.sort (fun a b -> compare a.cycle b.cycle)
  in
  { name; accesses; solo_cycles = r.Sim.stats.cycles }

(* Distinct processes map to distinct physical pages: decorrelate each
   CPU's bank footprint with a per-CPU odd word offset. *)
let cpu_word_offset i = i * 509

(* CPU [i] starts [i * stagger] cycles late: processes never start on the
   same cycle. *)
let stagger = 3

let replay ?(machine = Machine.c240) ?(faults = Fault.none) streams =
  if streams = [] then invalid_arg "Cosim.replay: no streams";
  if List.length streams > 4 then
    invalid_arg "Cosim.replay: the C-240 has four CPUs";
  let mp = machine.Machine.memory in
  let banks = Array.make mp.Mem_params.banks 0 in
  let n = List.length streams in
  let cpus = Array.of_list streams in
  (* a loaded machine keeps every CPU busy: repeat shorter streams until
     they cover the longest one, so contention is sustained throughout *)
  let longest =
    List.fold_left (fun acc s -> Float.max acc s.solo_cycles) 0.0 streams
  in
  let repeats =
    Array.map
      (fun s ->
        max 1 (int_of_float (Float.round (longest /. Float.max 1.0 s.solo_cycles))))
      cpus
  in
  let pending =
    Array.mapi
      (fun i s ->
        let base = Array.of_list s.accesses in
        let period = int_of_float (Float.ceil s.solo_cycles) + 1 in
        Array.init
          (repeats.(i) * Array.length base)
          (fun j ->
            let r = j / Array.length base in
            let a = base.(j mod Array.length base) in
            { a with cycle = a.cycle + (r * period) }))
      cpus
  in
  let idx = Array.make n 0 in
  let delay = Array.init n (fun i -> i * stagger) in
  let base_delay = Array.copy delay in
  let remaining () =
    let r = ref 0 in
    for i = 0 to n - 1 do
      r := !r + (Array.length pending.(i) - idx.(i))
    done;
    !r
  in
  let total = remaining () in
  let t = ref 0 in
  let guard = ref 0 in
  let replay_all () =
    while remaining () > 0 do
      incr guard;
      if !guard > 100 * (total + 1000) then
        Macs_error.raise_error
          (if Fault.is_none faults then
             Macs_error.livelock ~site:"Cosim.replay" ~cycle:!t
               ~pending:(remaining ()) ()
           else
             Macs_error.stall_out ~site:"Cosim.replay" ~cycle:!t
               ~pending:(remaining ()) ~plan:faults.Fault.name);
      (* rotate priority so no CPU systematically wins ties *)
      for k = 0 to n - 1 do
        let i = (k + !t) mod n in
        if idx.(i) < Array.length pending.(i) then begin
          let a = pending.(i).(idx.(i)) in
          let due = a.cycle + delay.(i) in
          if due <= !t then begin
            let bank =
              let b = (a.word + cpu_word_offset i) mod mp.Mem_params.banks in
              if b < 0 then b + mp.Mem_params.banks else b
            in
            if
              banks.(bank) <= !t
              && (not (Fault.bank_blocked faults ~bank ~cycle:!t))
              && not (Fault.port_blocked faults ~cycle:!t)
            then begin
              banks.(bank) <-
                !t + mp.Mem_params.bank_busy_cycles
                + Fault.bank_extra_busy faults ~bank ~cycle:!t;
              idx.(i) <- idx.(i) + 1;
              (* an access accepted later than desired slips the stream *)
              if due < !t then delay.(i) <- delay.(i) + (!t - due)
            end
            else
              (* rejected: the whole remaining stream slips a cycle *)
              delay.(i) <- delay.(i) + 1
          end
        end
      done;
      incr t
    done
  in
  match replay_all () with
  | exception Macs_error.Error e -> Error e
  | () ->
      let outcomes =
        List.mapi
          (fun i s ->
            (* the slip accumulated over all repetitions, averaged back to
               one *)
            let d = (delay.(i) - base_delay.(i)) / repeats.(i) in
            {
              stream = s;
              delay = d;
              slowdown =
                (s.solo_cycles +. float_of_int d)
                /. Float.max 1.0 s.solo_cycles;
            })
          streams
      in
      let average_slowdown =
        List.fold_left (fun acc o -> acc +. o.slowdown) 0.0 outcomes
        /. float_of_int n
      in
      Ok { cpus = outcomes; average_slowdown }

let run ?machine ?faults workloads =
  match
    List.map
      (fun (job, name) -> stream_of_job ?machine ?faults ~name job)
      workloads
  with
  | exception Macs_error.Error e -> Error e
  | streams -> replay ?machine ?faults streams

let run_exn ?machine ?faults workloads =
  Macs_error.of_result (run ?machine ?faults workloads)

let pp fmt t =
  Format.fprintf fmt "@[<v>co-simulated %d CPUs, average slowdown %.2fx"
    (List.length t.cpus) t.average_slowdown;
  List.iter
    (fun o ->
      Format.fprintf fmt
        "@,  %-16s solo %.0f cycles, +%d slip cycles (%.2fx)"
        o.stream.name o.stream.solo_cycles o.delay o.slowdown)
    t.cpus;
  Format.fprintf fmt "@]"
