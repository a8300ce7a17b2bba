open Convex_machine
open Convex_vpsim
open Convex_fault
open Macs_util

type perf = {
  cpl : float;
  cpf : float;
  mflops : float;
  checksum : float;
  checksum_ok : bool;
}

type source = Measured | Estimated of Macs_error.t

type row = {
  kernel : Lfk.Kernel.t;
  mode : Job.mode;
  outcome : (perf, Macs_error.t) Stdlib.result;
  source : source;
}

type t = {
  machine : Machine.t;
  faults : Fault.t;
  rows : row list;
  vector_hmean_mflops : float;
  overall_hmean_mflops : float;
  violations : Macs.Oracle.violation list;
}

(* Sum of the kernel's output arrays: the LFK-style result signature. *)
let checksum_of_store (k : Lfk.Kernel.t) store =
  List.fold_left
    (fun acc name ->
      Array.fold_left ( +. ) acc (Store.get store name))
    0.0
    (Lfk.Reference.output_arrays k)

(* Under an active fault plan, legitimate per-access waits stay under a
   few hundred cycles (degraded banks, scrub windows and port spikes are
   all short); only a permanently blocked bank spins longer.  A small
   guard keeps stalled-out kernels cheap to diagnose without risking
   false positives. *)
let faulted_guard = 50_000

let kernels () =
  List.sort
    (fun (a : Lfk.Kernel.t) b -> compare a.id b.id)
    (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels)

let run_kernel_attempts ?watchdog ~machine ~opt ~faults ~guard
    (k : Lfk.Kernel.t) =
  let c = Fcc.Compiler.compile ~opt k in
  let layout = Macs.Hierarchy.layout_of c in
  let outcome, attempts =
    Retry.with_relaxed_guard_attempts (fun ~guard_scale ->
        match
          Measure.run ?watchdog ~machine ~layout ~faults
            ~guard:(guard * guard_scale)
            ~flops_per_iteration:c.flops_per_iteration c.job
        with
        | Error _ as e -> e
        | Ok m ->
            let got = Fcc.Compiler.run_interp c in
            let want = Lfk.Data.store_of k in
            Lfk.Reference.run k want;
            let checksum = checksum_of_store k got in
            let expected = checksum_of_store k want in
            let checksum_ok =
              Float.abs (checksum -. expected)
              <= 1e-9 *. (Float.abs expected +. 1.0)
            in
            Ok
              {
                cpl = m.Measure.cpl;
                cpf = m.Measure.cpf;
                mflops = m.Measure.mflops;
                checksum;
                checksum_ok;
              })
  in
  ({ kernel = k; mode = c.mode; outcome; source = Measured }, attempts)

let run_kernel ?watchdog ~machine ~opt ~faults ~guard k =
  fst (run_kernel_attempts ?watchdog ~machine ~opt ~faults ~guard k)

let of_rows ?(violations = []) ~machine ~faults rows =
  let hmean sel =
    let cpfs =
      rows
      |> List.filter_map (fun r ->
             match (r.outcome, r.source) with
             | Ok p, Measured when sel r -> Some p.cpf
             | _ -> None)
      |> Array.of_list
    in
    if Array.length cpfs = 0 then 0.0
    else
      Macs.Units.hmean_mflops ~clock_mhz:machine.Machine.clock_mhz
        ~cpf_values:cpfs
  in
  {
    machine;
    faults;
    rows;
    vector_hmean_mflops = hmean (fun r -> r.mode = Job.Vector);
    overall_hmean_mflops = hmean (fun _ -> true);
    violations;
  }

let run ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61)
    ?(faults = Fault.none) ?guard () =
  let guard =
    match guard with
    | Some g -> g
    | None -> if Fault.is_none faults then Sim.default_guard else faulted_guard
  in
  let rows = List.map (run_kernel ~machine ~opt ~faults ~guard) (kernels ()) in
  of_rows ~machine ~faults rows

let failed_rows t =
  List.filter_map
    (fun r -> match r.outcome with Error e -> Some (r, e) | Ok _ -> None)
    t.rows

let estimated_rows t =
  List.filter_map
    (fun r ->
      match (r.outcome, r.source) with
      | Ok _, Estimated e -> Some (r, e)
      | _ -> None)
    t.rows

let render t =
  let tbl =
    Table.create
      ~header:
        [ "LFK"; "mode"; "CPL"; "CPF"; "MFLOPS"; "checksum"; "verified" ]
      ()
  in
  List.iter
    (fun r ->
      let mode =
        match r.mode with Job.Vector -> "vector" | Job.Scalar -> "scalar"
      in
      match (r.outcome, r.source) with
      | Ok p, Measured ->
          Table.add_row tbl
            [
              Table.cell_int r.kernel.id;
              mode;
              Table.cell_float ~decimals:3 p.cpl;
              Table.cell_float ~decimals:3 p.cpf;
              Table.cell_float ~decimals:2 p.mflops;
              Printf.sprintf "%.6e" p.checksum;
              (if p.checksum_ok then "ok" else "MISMATCH");
            ]
      | Ok p, Estimated _ ->
          Table.add_row tbl
            [
              Table.cell_int r.kernel.id;
              mode;
              Table.cell_float ~decimals:3 p.cpl;
              Table.cell_float ~decimals:3 p.cpf;
              Table.cell_float ~decimals:2 p.mflops;
              "-";
              "estimated";
            ]
      | Error e, _ ->
          Table.add_row tbl
            [
              Table.cell_int r.kernel.id;
              mode;
              "-";
              "-";
              "-";
              Macs_error.kind e;
              "FAILED";
            ])
    t.rows;
  let note label entries to_line =
    match entries with
    | [] -> ""
    | es ->
        Printf.sprintf "\n%s (%d kernel%s):\n%s\n" label (List.length es)
          (if List.length es = 1 then "" else "s")
          (String.concat "\n" (List.map to_line es))
  in
  let diagnostics =
    note "diagnostics" (failed_rows t) (fun ((r : row), e) ->
        Printf.sprintf "  LFK%-2d %s" r.kernel.id (Macs_error.to_string e))
  in
  let estimates =
    note "analytic estimates substituted" (estimated_rows t)
      (fun ((r : row), e) ->
        Printf.sprintf "  LFK%-2d %s" r.kernel.id (Macs_error.to_string e))
  in
  let oracle =
    match t.violations with
    | [] -> ""
    | vs ->
        Printf.sprintf "\nbound-oracle violations (%d):\n%s\n"
          (List.length vs)
          (String.concat "\n"
             (List.map
                (fun (v : Macs.Oracle.violation) ->
                  Printf.sprintf "  %-10s %-22s %s" v.Macs.Oracle.subject
                    v.Macs.Oracle.invariant v.Macs.Oracle.detail)
                vs))
  in
  let fault_note =
    if Fault.is_none t.faults then ""
    else Printf.sprintf " under fault plan %S" t.faults.Fault.name
  in
  Printf.sprintf
    "Livermore suite on the simulated %s%s\n%s\n%s%s%s\nharmonic-mean \
     MFLOPS: %.2f over the ten vectorized kernels, %.2f over all twelve \
     (failed and estimated kernels excluded)\n"
    t.machine.Machine.name fault_note (Table.render tbl) diagnostics
    estimates oracle t.vector_hmean_mflops t.overall_hmean_mflops
