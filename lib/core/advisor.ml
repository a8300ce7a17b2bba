open Convex_machine

type basis = Measured | Bound_projection
type target = Compiler | Machine_hw | Application

type suggestion = {
  action : string;
  target : target;
  basis : basis;
  baseline_cpf : float;
  projected_cpf : float;
  gain : float;
}

let target_name = function
  | Compiler -> "compiler"
  | Machine_hw -> "machine"
  | Application -> "application"

let basis_name = function
  | Measured -> "measured"
  | Bound_projection -> "bound projection"

let suggestion ~action ~target ~basis ~baseline ~projected =
  {
    action;
    target;
    basis;
    baseline_cpf = baseline;
    projected_cpf = projected;
    gain = (baseline -. projected) /. baseline;
  }

(* t_p exactly as Hierarchy.of_compiled measures it *)
let p_cpf ?watchdog ~machine (c : Fcc.Compiler.t) layout =
  (Convex_vpsim.Measure.run_exn ~machine ~layout ?watchdog
     ~flops_per_iteration:c.flops_per_iteration c.job)
    .Convex_vpsim.Measure.cpf

let vector_advice ?watchdog ~machine (k : Lfk.Kernel.t) =
  let c = Fcc.Compiler.compile k in
  let layout = Hierarchy.layout_of c in
  let base_cpf = p_cpf ?watchdog ~machine c layout in
  let measured ~action ~target projected =
    suggestion ~action ~target ~basis:Measured ~baseline:base_cpf ~projected
  in
  let recompiled opt =
    let c = Fcc.Compiler.compile ~opt k in
    p_cpf ?watchdog ~machine c (Hierarchy.layout_of c)
  in
  let candidates =
    [
      measured
        ~action:
          "keep shifted reuse streams in registers instead of reloading \
           (ideal compiler reuse)"
        ~target:Compiler
        (recompiled Fcc.Opt_level.ideal);
      measured
        ~action:
          "re-schedule the loop body with a chime-aware list scheduler \
           (packed)"
        ~target:Compiler
        (recompiled Fcc.Opt_level.packed);
      measured
        ~action:"eliminate tailgate bubbles (perfect pipe hand-off)"
        ~target:Machine_hw
        (p_cpf ?watchdog ~machine:(Machine.no_bubbles machine) c layout);
      measured
        ~action:"hide the memory refresh (static RAM or refresh-free banks)"
        ~target:Machine_hw
        (p_cpf ?watchdog ~machine:(Machine.no_refresh machine) c layout);
      measured ~action:"add a second load/store pipe" ~target:Machine_hw
        (p_cpf ?watchdog ~machine:(Machine.dual_load_store machine) c layout);
    ]
  in
  (* spill elimination: cannot be applied with eight s-registers, so
     project it at the bound level by deleting the per-iteration scalar
     reloads from the schedule *)
  let spill_projection =
    if c.spilled_scalars = [] then []
    else
      let body = Convex_isa.Program.body c.program in
      let without =
        List.filter
          (fun i -> not (Convex_isa.Instr.is_scalar_memory i))
          body
      in
      let bound_with = (Macs_bound.compute ~machine body).Macs_bound.cpl in
      let bound_without =
        (Macs_bound.compute ~machine without).Macs_bound.cpl
      in
      (* project the measured time shrinking by the bound's ratio *)
      let projected = base_cpf *. (bound_without /. Float.max 1e-9 bound_with) in
      [
        suggestion
          ~action:
            (Printf.sprintf
               "provide s-registers for the %d spilled coefficients (stops \
                scalar loads splitting chimes)"
               (List.length c.spilled_scalars))
          ~target:Machine_hw ~basis:Bound_projection ~baseline:base_cpf
          ~projected;
      ]
  in
  candidates @ spill_projection

let scalar_advice ?watchdog ~machine (k : Lfk.Kernel.t) =
  (* the only lever for a carried recurrence is algorithmic *)
  let c = Fcc.Compiler.compile k in
  let m =
    Convex_vpsim.Measure.run_exn ?watchdog ~machine
      ~flops_per_iteration:c.flops_per_iteration c.job
  in
  let bound = Scalar_bound.of_compiled c in
  [
    suggestion
      ~action:
        "restructure the recurrence (cyclic reduction / partitioning) to \
         expose vector parallelism; the dependence pseudo-unit, not a \
         resource, is the bottleneck"
      ~target:Application ~basis:Bound_projection
      ~baseline:m.Convex_vpsim.Measure.cpf
      ~projected:
        (Float.max bound.Scalar_bound.memory bound.Scalar_bound.fp
        /. float_of_int (Lfk.Kernel.flops k));
  ]

let advise ?(machine = Machine.c240) ?(threshold = 0.01) ?watchdog k =
  let all =
    if Fcc.Vectorizer.vectorizable k then vector_advice ?watchdog ~machine k
    else scalar_advice ?watchdog ~machine k
  in
  all
  |> List.filter (fun s -> s.gain > threshold)
  |> List.sort (fun a b -> Float.compare b.gain a.gain)

let report ?(machine = Machine.c240) k =
  let suggestions = advise ~machine k in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s: ranked optimization advice\n" k.Lfk.Kernel.name);
  if suggestions = [] then
    Buffer.add_string buf
      "  nothing evaluated saves more than 1% - the kernel runs at its \
       deliverable performance\n"
  else
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  %5.1f%%  [%s, %s] %s (%.3f -> %.3f CPF)\n"
             (100.0 *. s.gain) (target_name s.target) (basis_name s.basis)
             s.action s.baseline_cpf s.projected_cpf))
      suggestions;
  Buffer.contents buf
