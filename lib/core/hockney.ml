open Convex_machine
open Convex_vpsim

type t = {
  r_inf_mflops : float;
  n_half : float;
  startup_cycles : float;
  cycles_per_element : float;
  samples : (int * float) list;
}

let lengths = [ 8; 16; 24; 32; 48; 64; 96; 128 ]

let measure ?(machine = Machine.c240) (k : Lfk.Kernel.t) =
  List.iter
    (fun n ->
      if n < 1 || n > machine.Machine.max_vl then
        invalid_arg "Hockney.measure: length out of [1; max VL]")
    lengths;
  let c = Fcc.Compiler.compile k in
  let shifts =
    match k.segments with s :: _ -> s.Lfk.Kernel.shifts | [] -> []
  in
  let machine_nr = Machine.no_refresh machine in
  let samples =
    List.map
      (fun n ->
        let job =
          Job.make ~mode:c.job.Job.mode ~name:c.job.Job.name
            ~body:c.job.Job.body
            ~segments:[ Job.segment ~shifts n ]
            ()
        in
        let r = Sim.run_exn ~machine:machine_nr job in
        (n, r.Sim.stats.cycles))
      lengths
  in
  let t0, per_element =
    Macs_util.Stats.linear_fit
      (List.map (fun (n, c) -> (float_of_int n, c)) samples)
  in
  let flops = float_of_int c.flops_per_iteration in
  let r_inf_mflops = machine.clock_mhz *. flops /. per_element in
  {
    r_inf_mflops;
    n_half = t0 /. per_element;
    startup_cycles = t0;
    cycles_per_element = per_element;
    samples;
  }

let macs_rate_mflops ?(machine = Machine.c240) k =
  let c = Fcc.Compiler.compile k in
  let body = Convex_isa.Program.body c.program in
  match c.mode with
  | Job.Scalar ->
      let b = Scalar_bound.of_compiled c in
      machine.clock_mhz *. float_of_int c.flops_per_iteration
      /. b.Scalar_bound.cpl
  | Job.Vector ->
      let machine_nr = Machine.no_refresh machine in
      let bound = Macs_bound.compute ~machine:machine_nr body in
      machine.clock_mhz *. float_of_int c.flops_per_iteration
      /. bound.Macs_bound.cpl

let render ?(machine = Machine.c240) kernels =
  let open Macs_util in
  let tbl =
    Table.create
      ~header:
        [ "kernel"; "r_inf MFLOPS"; "MACS rate"; "n_half"; "startup cyc" ]
      ()
  in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let h = measure ~machine k in
      Table.add_row tbl
        [
          k.name;
          Table.cell_float ~decimals:2 h.r_inf_mflops;
          Table.cell_float ~decimals:2 (macs_rate_mflops ~machine k);
          Table.cell_float ~decimals:1 h.n_half;
          Table.cell_float ~decimals:1 h.startup_cycles;
        ])
    kernels;
  "Hockney characterization (r_inf from a within-strip length sweep; it \
   converges to the MACS steady-state rate, while n_half measures the \
   start-up the MACS model ignores)\n" ^ Table.render tbl
