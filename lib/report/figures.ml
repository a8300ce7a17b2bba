open Convex_isa
open Convex_vpsim
open Macs_util

let fig2_body ~chained =
  let v = Reg.v in
  let mem array : Instr.mem = { array; offset = 0; stride = 1 } in
  if chained then
    [
      Instr.Vld { dst = v 0; src = mem "A" };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
      Instr.Vbin { op = Mul; dst = v 5; src1 = Vr (v 2); src2 = Vr (v 3) };
    ]
  else
    [
      Instr.Vld { dst = v 0; src = mem "A" };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 1); src2 = Vr (v 1) };
      Instr.Vbin { op = Mul; dst = v 5; src1 = Vr (v 3); src2 = Vr (v 3) };
    ]

let timeline events total =
  let width = 64 in
  let scale t = int_of_float (t /. total *. float_of_int width) in
  let buf = Buffer.create 512 in
  List.iter
    (fun (e : Sim.event) ->
      if Instr.is_vector e.instr then begin
        let start = scale e.start and stop = max (scale e.completion) 1 in
        let label =
          match Convex_machine.Pipe.of_instr e.instr with
          | Some p -> Convex_machine.Pipe.name p
          | None -> "scalar"
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-10s |%s%s| %5.0f..%-5.0f %s\n" label
             (String.make start ' ')
             (String.make (max 1 (stop - start)) '=')
             e.start e.completion
             (Asm.print_instr e.instr))
      end)
    events;
  Buffer.contents buf

let figure2 () =
  let machine = Convex_machine.Machine.no_refresh Convex_machine.Machine.c240 in
  let run body n =
    Sim.run_exn ~machine ~trace:true
      (Job.make ~name:"fig2" ~body ~segments:[ Job.segment n ] ())
  in
  let chained = run (fig2_body ~chained:true) 128 in
  let unchained = run (fig2_body ~chained:false) 128 in
  let two = run (fig2_body ~chained:true) 256 in
  let steady = two.stats.cycles -. chained.stats.cycles in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 2: chaining with perfect tailgating (ld -> add -> mul, VL=128)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "chained, one chime: %.0f cycles (paper %.0f)\n"
       chained.stats.cycles Paper.fig2_chained_cycles);
  Buffer.add_string buf (timeline chained.events chained.stats.cycles);
  Buffer.add_string buf
    (Printf.sprintf
       "\nindependent instructions, concurrent pipes: %.0f cycles \
        (sequential non-chaining sum would be %.0f; paper %.0f)\n"
       unchained.stats.cycles
       (140.0 +. 140.0 +. 142.0)
       Paper.fig2_unchained_cycles);
  Buffer.add_string buf (timeline unchained.events unchained.stats.cycles);
  Buffer.add_string buf
    (Printf.sprintf
       "\nsecond chime (steady state): %.0f cycles = VL + sum of bubbles \
        (paper %.0f)\n"
       steady Paper.fig2_steady_chime);
  Buffer.contents buf

let figure3 ~load_average (ds : Dataset.t) =
  let contention = Convex_memsys.Contention.of_load_average load_average in
  let multi =
    Dataset.compute ~machine:ds.machine ~contention ~opt:ds.opt ()
  in
  let ma, mac, macs, single = Dataset.cpf_columns ds in
  let _, _, _, multi_p = Dataset.cpf_columns multi in
  let categories =
    List.map
      (fun (h : Macs.Hierarchy.t) -> Printf.sprintf "LFK%d" h.kernel.id)
      ds.rows
  in
  let series =
    [
      { Chart.label = "MA bound"; glyph = '.'; values = ma };
      { Chart.label = "MAC bound"; glyph = ':'; values = mac };
      { Chart.label = "MACS bound"; glyph = '+'; values = macs };
      { Chart.label = "measured 1p"; glyph = '#'; values = single };
      { Chart.label = "measured multi"; glyph = '%'; values = multi_p };
    ]
  in
  Printf.sprintf
    "Figure 3: CPF per kernel, bounds hierarchy and measured performance\n\
     (multi-process series simulated at load average %.1f)\n\n%s"
    load_average
    (Chart.render ~categories series)

let pipeline_trace () =
  let k = Lfk.Kernels.find 1 in
  let c = Fcc.Compiler.compile k in
  (* two strips of the first segment only, so the picture stays small *)
  let seg = List.hd c.job.Job.segments in
  let n = min seg.Job.vl 256 in
  let job =
    Job.make ~name:c.job.Job.name ~body:c.job.Job.body
      ~segments:[ { seg with Job.vl = n } ]
      ()
  in
  let machine = Convex_machine.Machine.no_refresh Convex_machine.Machine.c240 in
  let r = Sim.run_exn ~machine ~trace:true job in
  let vector_events =
    List.filter (fun (e : Sim.event) -> Instr.is_vector e.instr) r.events
  in
  let total = r.stats.cycles in
  let width = 72 in
  let scale t = int_of_float (t /. total *. float_of_int width) in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "Pipeline trace: %s, first %d elements (%.0f cycles, no refresh)\n\n"
       (Convex_isa.Program.name c.program)
       n total);
  let last_strip = ref (-1) in
  List.iter
    (fun (e : Sim.event) ->
      if e.strip <> !last_strip then begin
        Buffer.add_string buf (Printf.sprintf "strip %d:\n" e.strip);
        last_strip := e.strip
      end;
      let start = scale e.start and stop = max (scale e.completion) 1 in
      let pipe =
        match Convex_machine.Pipe.of_instr e.instr with
        | Some p -> Convex_machine.Pipe.name p
        | None -> "scalar"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-10s |%s%s|%s %s\n" pipe
           (String.make start ' ')
           (String.make (max 1 (stop - start)) '=')
           (String.make (max 0 (width + 1 - stop)) ' ')
           (Asm.print_instr e.instr)))
    vector_events;
  Buffer.contents buf
