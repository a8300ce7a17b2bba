open Convex_machine
open Convex_memsys
open Convex_fault
open Macs_util

type cpu = {
  job : Job.t;
  flops_per_iteration : int;
  alone : Measure.t;
  contended : Measure.t;
  pressure : float;
  slowdown : float;
}

type t = { lockstep : bool; cpus : cpu list; average_slowdown : float }

(* Calibration: a CPU competing with combined pressure S sees its port
   slot stolen with probability interference * S, reduced when lockstep
   phase-aligns the streams.  With three other saturated CPUs
   (S ~ 2.5-2.9) this lands near the paper's ~20% rule for different
   programs and 5-10% for lockstep. *)
let interference = 0.07
let lockstep_factor = 0.45
let steal_cap = 0.38

let run ?(machine = Machine.c240) ?(faults = Fault.none) workloads =
  if workloads = [] then invalid_arg "Parallel.run: no workloads";
  if List.length workloads > 4 then
    invalid_arg "Parallel.run: the C-240 has four CPUs";
  (* lockstep: every CPU runs the same executable *)
  let lockstep =
    let j0, _ = List.hd workloads in
    List.for_all (fun (j, _) -> j.Job.name = j0.Job.name) workloads
  in
  let simulate () =
    let solo =
      List.map
        (fun (job, flops) ->
          (* pass 1 stays fault-free: it establishes the healthy baseline
             every slowdown is measured against *)
          let m = Measure.run_exn ~machine ~flops_per_iteration:flops job in
          let pressure =
            float_of_int m.Measure.stats.Sim.mem_accesses
            /. Float.max 1.0 m.Measure.stats.Sim.cycles
          in
          (job, flops, m, pressure))
        workloads
    in
    let total_pressure =
      List.fold_left (fun acc (_, _, _, p) -> acc +. p) 0.0 solo
    in
    let cpus =
      List.mapi
        (fun i (job, flops, alone, pressure) ->
          let others = total_pressure -. pressure in
          let steal =
            Float.min steal_cap
              (interference *. others
              *. if lockstep then lockstep_factor else 1.0)
          in
          (* a port-steal fault plan piles additional theft from the
             faulty CPU / IO traffic on top of the modeled contention *)
          let steal = Float.min 0.95 (steal +. Fault.steal_fraction faults) in
          let contention =
            if steal <= 0.0 then Contention.none
            else Contention.of_steal_probability ~seed:(0x5eed + i) steal
          in
          let contended =
            Measure.run_exn ~machine ~contention ~faults
              ~flops_per_iteration:flops job
          in
          {
            job;
            flops_per_iteration = flops;
            alone;
            contended;
            pressure;
            slowdown = contended.Measure.cpl /. alone.Measure.cpl;
          })
        solo
    in
    let average_slowdown =
      List.fold_left (fun acc c -> acc +. c.slowdown) 0.0 cpus
      /. float_of_int (List.length cpus)
    in
    { lockstep; cpus; average_slowdown }
  in
  match simulate () with
  | exception Macs_error.Error e -> Error e
  | t -> Ok t

let run_exn ?machine ?faults workloads =
  Macs_error.of_result (run ?machine ?faults workloads)

let replicate w p = List.init p (fun _ -> w)

let pp fmt t =
  Format.fprintf fmt "@[<v>%d CPUs%s, average slowdown %.2fx"
    (List.length t.cpus)
    (if t.lockstep then " (lockstep)" else "")
    t.average_slowdown;
  List.iter
    (fun c ->
      Format.fprintf fmt "@,  %-24s alone %.3f CPL, contended %.3f CPL (%.2fx)"
        c.job.Job.name c.alone.Measure.cpl c.contended.Measure.cpl c.slowdown)
    t.cpus;
  Format.fprintf fmt "@]"
