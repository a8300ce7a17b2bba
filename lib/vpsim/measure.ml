open Convex_machine
open Macs_util

type t = {
  cpl : float;
  cpf : float;
  mflops : float;
  cycles : float;
  stats : Sim.stats;
}

let run ?(machine = Machine.c240) ?layout ?contention ?faults ?guard ?watchdog
    ?fidelity ~flops_per_iteration job =
  if flops_per_iteration <= 0 then
    invalid_arg "Measure.run: nonpositive flops_per_iteration";
  match
    Sim.run ~machine ?layout ?contention ?faults ?guard ?watchdog ?fidelity
      job
  with
  | Error _ as e -> e
  | Ok r ->
      let cpl = Sim.cpl r in
      let cpf = cpl /. float_of_int flops_per_iteration in
      Ok
        {
          cpl;
          cpf;
          mflops = Machine.mflops_of_cpf machine cpf;
          cycles = r.stats.cycles;
          stats = r.stats;
        }

let run_exn ?machine ?layout ?contention ?faults ?watchdog ?fidelity
    ~flops_per_iteration job =
  Macs_error.of_result
    (run ?machine ?layout ?contention ?faults ?watchdog ?fidelity
       ~flops_per_iteration job)

let pp fmt m =
  Format.fprintf fmt "%.3f CPL, %.3f CPF, %.2f MFLOPS (%.0f cycles)" m.cpl
    m.cpf m.mflops m.cycles
