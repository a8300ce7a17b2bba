open Convex_isa
open Convex_vpsim
module Fault = Convex_fault.Fault
module Macs_error = Macs_util.Macs_error
module Suite = Macs_report.Suite

type verdict =
  | Pass
  | Degraded of Macs_error.t
  | Violation of { check : string; detail : string }

type outcome = { verdict : verdict; cpl : float option }

let probe_tol = Macs.Oracle.default_tol

(* The same provably-monotone workload the bound oracle's
   faulted-never-faster check uses: a single unit-stride load stream,
   where injected delay can only push completion later — here stretched
   past a transient window so the tail of the run is entirely
   post-fault. *)
let probe_job n =
  Job.make ~name:"chaos-recovery-probe"
    ~body:
      [
        Instr.Vld
          { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } };
      ]
    ~segments:[ Job.segment n ] ()

(* Convergence back to healthy-tail timing: once the window closes, the
   faulted run's overhead must stop growing.  Two probe lengths that both
   outlive the window measure the overhead twice; recovery means the
   extra tail elements run at the healthy rate, so the two overheads
   agree up to tolerance.  A fault that persists past its window makes
   the overhead grow with the tail and is caught here. *)
let recovery_check ~machine ~guard plan =
  match plan.Fault.window with
  | None -> None
  | Some w ->
      let n_short = w.Fault.closes + 512 in
      let n_long = n_short + 1024 in
      let run ?faults n = Sim.run ~machine ?faults ~guard (probe_job n) in
      let cycles (r : Sim.result) = r.Sim.stats.Sim.cycles in
      (match (run n_short, run n_long) with
      | Error e, _ | _, Error e ->
          Some
            (Violation
               {
                 check = "recovery-probe";
                 detail =
                   "healthy recovery probe failed: " ^ Macs_error.to_string e;
               })
      | Ok hs, Ok hl -> (
          match (run ~faults:plan n_short, run ~faults:plan n_long) with
          | Error e, _ | _, Error e ->
              (* the probe stalling out under the plan is a diagnosed
                 outcome, same as the never-faster oracle treats it *)
              Some (Degraded e)
          | Ok fs, Ok fl ->
              let o_short = cycles fs -. cycles hs in
              let o_long = cycles fl -. cycles hl in
              let slack = (probe_tol *. cycles hl) +. 64.0 in
              if o_long > o_short +. slack then
                Some
                  (Violation
                     {
                       check = "transient-recovery";
                       detail =
                         Printf.sprintf
                           "window closes at %d but overhead keeps growing: \
                            +%.0f cycles over %d elements, +%.0f over %d \
                            (slack %.0f)"
                           w.Fault.closes o_short n_short o_long n_long slack;
                     })
              else None))

let check_cell ?watchdog ~machine ~opt ~guard plan kernel =
  match
    Suite.run_kernel ?watchdog ~machine ~opt ~faults:plan ~guard kernel
  with
  | exception Macs_error.Error e ->
      {
        verdict =
          Violation
            {
              check = "no-crash";
              detail =
                "diagnostic escaped the typed result channel: "
                ^ Macs_error.to_string e;
            };
        cpl = None;
      }
  | exception e ->
      {
        verdict =
          Violation { check = "no-crash"; detail = Printexc.to_string e };
        cpl = None;
      }
  | row -> (
      match row.Suite.outcome with
      | Error e -> { verdict = Degraded e; cpl = None }
      | Ok p -> (
          let cpl = Some p.Suite.cpl in
          if not p.Suite.checksum_ok then
            {
              verdict =
                Violation
                  {
                    check = "checksum";
                    detail =
                      Printf.sprintf
                        "faults are timing-only but checksum %g does not \
                         match the reference"
                        p.Suite.checksum;
                  };
              cpl;
            }
          else
            let c = Fcc.Compiler.compile ~opt kernel in
            match
              Macs.Oracle.check_row ~machine c ~measured_cpl:p.Suite.cpl
            with
            | v :: _ ->
                {
                  verdict =
                    Violation
                      {
                        check = "oracle:" ^ v.Macs.Oracle.invariant;
                        detail = v.Macs.Oracle.detail;
                      };
                  cpl;
                }
            | [] -> (
                match Macs.Oracle.check_faulted_never_faster ~machine plan with
                | v :: _ ->
                    {
                      verdict =
                        Violation
                          {
                            check = "faulted-never-faster";
                            detail = v.Macs.Oracle.detail;
                          };
                      cpl;
                    }
                | [] -> (
                    match recovery_check ~machine ~guard plan with
                    | Some verdict -> { verdict; cpl }
                    | None -> { verdict = Pass; cpl }))))
