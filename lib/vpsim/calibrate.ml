open Convex_isa
open Convex_machine

type fit = { vclass : Instr.vclass; startup : float; z : float; b : float }

let representative cls =
  let v = Reg.v and s = Reg.s in
  let cal : Instr.mem = { array = "CAL"; offset = 0; stride = 1 } in
  match cls with
  | Instr.Cld -> Instr.Vld { dst = v 0; src = cal }
  | Instr.Cst -> Instr.Vst { src = v 0; dst = cal }
  | Instr.Cadd -> Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) }
  | Instr.Csub -> Instr.Vbin { op = Sub; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) }
  | Instr.Cmul -> Instr.Vbin { op = Mul; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) }
  | Instr.Cdiv -> Instr.Vbin { op = Div; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) }
  | Instr.Csqrt -> Instr.Vsqrt { dst = v 1; src = v 0 }
  | Instr.Csum -> Instr.Vsum { dst = s 6; src = v 0 }
  | Instr.Cneg -> Instr.Vneg { dst = v 1; src = v 0 }
  | Instr.Ccmp -> Instr.Vcmp { op = Lt; src1 = v 0; src2 = Vr (v 1) }
  | Instr.Cmerge -> Instr.Vmerge { dst = v 2; src_true = Vr (v 0); src_false = Vr (v 1) }

let run_cycles machine body ~elements =
  let job =
    Job.make ~name:"calibration" ~body ~segments:[ Job.segment elements ] ()
  in
  (Sim.run_exn ~machine job).stats.cycles

let single_run_cycles cls ~vl =
  let machine = Machine.c240 in
  if vl < 1 || vl > machine.max_vl then
    invalid_arg "Calibrate.single_run_cycles: vl out of range";
  run_cycles machine [ representative cls ] ~elements:vl

let fit_class cls =
  let machine = Machine.no_refresh Machine.c240 in
  let instr = representative cls in
  (* X + Y and Z from a VL sweep of isolated runs *)
  let sweep = [ 16; 32; 48; 64; 96; 128 ] in
  let points =
    List.map
      (fun vl ->
        (float_of_int vl, run_cycles machine [ instr ] ~elements:vl))
      sweep
  in
  let intercept, z = Macs_util.Stats.linear_fit points in
  (* completion of an isolated instruction is X + Z*(VL-1) + Y + 1, so the
     intercept is X + Y + 1 - Z; report X + Y *)
  let startup = intercept +. z -. 1.0 in
  (* B from the steady-state delta of a long back-to-back loop *)
  let k1 = 24 and k2 = 32 in
  let c1 = run_cycles machine [ instr ] ~elements:(machine.max_vl * k1) in
  let c2 = run_cycles machine [ instr ] ~elements:(machine.max_vl * k2) in
  let per_rep = (c2 -. c1) /. float_of_int (k2 - k1) in
  let b = per_rep -. (z *. float_of_int machine.max_vl) in
  { vclass = cls; startup; z; b }

let fit_all () = List.map fit_class Instr.all_vclasses

let chime_cycles instrs =
  let machine = Machine.c240 in
  if instrs = [] then invalid_arg "Calibrate.chime_cycles: empty chime";
  let k1 = 24 and k2 = 32 in
  let c1 = run_cycles machine instrs ~elements:(machine.max_vl * k1) in
  let c2 = run_cycles machine instrs ~elements:(machine.max_vl * k2) in
  (c2 -. c1) /. float_of_int (k2 - k1)
