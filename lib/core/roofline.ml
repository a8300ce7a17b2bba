open Convex_machine

type t = {
  flops_per_iteration : int;
  bytes_per_iteration : float;
  arithmetic_intensity : float;
  peak_mflops : float;
  bandwidth_mbs : float;
  roofline_mflops : float;
  ma_mflops : float;
  memory_bound : bool;
}

let peak_mflops (machine : Machine.t) =
  (* one add and one multiply per cycle *)
  2.0 *. machine.clock_mhz

let bandwidth_mbs (machine : Machine.t) =
  float_of_int machine.memory.Mem_params.word_bytes *. machine.clock_mhz

let ridge_intensity ~machine = peak_mflops machine /. bandwidth_mbs machine

let of_counts ~machine ~flops (c : Counts.t) =
  if flops <= 0 then invalid_arg "Roofline.of_counts: nonpositive flops";
  let bytes =
    float_of_int
      (machine.Machine.memory.Mem_params.word_bytes * Counts.t_m c)
  in
  if bytes <= 0.0 then invalid_arg "Roofline.of_counts: no memory traffic";
  let ai = float_of_int flops /. bytes in
  let peak = peak_mflops machine in
  let bw = bandwidth_mbs machine in
  let roof = Float.min peak (ai *. bw) in
  let ma_cpl = float_of_int (Counts.t_bound c) in
  let ma_mflops =
    machine.clock_mhz /. (ma_cpl /. float_of_int flops)
  in
  {
    flops_per_iteration = flops;
    bytes_per_iteration = bytes;
    arithmetic_intensity = ai;
    peak_mflops = peak;
    bandwidth_mbs = bw;
    roofline_mflops = roof;
    ma_mflops;
    memory_bound = ai < ridge_intensity ~machine;
  }

let of_kernel ?(machine = Machine.c240) k =
  of_counts ~machine ~flops:(Lfk.Kernel.flops k) (Counts.ma_of_kernel k)

let ma_refines_roofline t = t.ma_mflops <= t.roofline_mflops +. 1e-9

let render entries =
  let machine = Machine.c240 in
  let open Macs_util in
  let tbl =
    Table.create
      ~header:
        [ "kernel"; "AI (flop/B)"; "roofline MFLOPS"; "MA MFLOPS";
          "binding roof" ]
      ()
  in
  List.iter
    (fun (label, t) ->
      Table.add_row tbl
        [
          label;
          Table.cell_float ~decimals:3 t.arithmetic_intensity;
          Table.cell_float ~decimals:2 t.roofline_mflops;
          Table.cell_float ~decimals:2 t.ma_mflops;
          (if t.memory_bound then "memory" else "compute");
        ])
    entries;
  Printf.sprintf
    "Roofline view of the MA bound (peak %.0f MFLOPS, bandwidth %.0f \
     MB/s, ridge at %.2f flop/B).  MA <= roofline everywhere; they \
     coincide when adds and multiplies balance.\n%s"
    (peak_mflops machine) (bandwidth_mbs machine)
    (ridge_intensity ~machine)
    (Table.render tbl)
