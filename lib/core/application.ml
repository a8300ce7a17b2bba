open Convex_machine

type component = {
  kernel : Lfk.Kernel.t;
  invocations : float;
  hierarchy : Hierarchy.t;
  time : float;
  share : float;
}

type t = {
  machine : Machine.t;
  components : component list;
  total_time : float;
  mflops : float;
}

type weighted_suggestion = {
  kernel_name : string;
  suggestion : Advisor.suggestion;
  application_gain : float;
}

let analyze ?(machine = Machine.c240) mix =
  if mix = [] then invalid_arg "Application.analyze: empty mix";
  List.iter
    (fun (_, w) ->
      if w <= 0.0 then invalid_arg "Application.analyze: nonpositive weight")
    mix;
  let partial =
    List.map
      (fun (kernel, invocations) ->
        let hierarchy = Hierarchy.analyze ~machine kernel in
        let elements = float_of_int (Lfk.Kernel.total_elements kernel) in
        let time =
          invocations *. elements *. hierarchy.Hierarchy.t_p.Convex_vpsim.Measure.cpl
        in
        (kernel, invocations, hierarchy, time))
      mix
  in
  let total_time =
    List.fold_left (fun acc (_, _, _, t) -> acc +. t) 0.0 partial
  in
  let total_flops =
    List.fold_left
      (fun acc (k, w, _, _) ->
        acc
        +. (w
           *. float_of_int (Lfk.Kernel.total_elements k)
           *. float_of_int (Lfk.Kernel.flops k)))
      0.0 partial
  in
  let components =
    partial
    |> List.map (fun (kernel, invocations, hierarchy, time) ->
           { kernel; invocations; hierarchy; time;
             share = time /. total_time })
    |> List.sort (fun a b -> Float.compare b.share a.share)
  in
  {
    machine;
    components;
    total_time;
    mflops = machine.clock_mhz *. total_flops /. total_time;
  }

let advise t =
  t.components
  |> List.concat_map (fun c ->
         List.map
           (fun (s : Advisor.suggestion) ->
             {
               kernel_name = c.kernel.Lfk.Kernel.name;
               suggestion = s;
               application_gain = s.Advisor.gain *. c.share;
             })
           (Advisor.advise ~machine:t.machine c.kernel))
  |> List.filter (fun ws -> ws.application_gain > 0.005)
  |> List.sort (fun a b ->
         Float.compare b.application_gain a.application_gain)

let render t =
  let open Macs_util in
  let tbl =
    Table.create
      ~header:[ "kernel"; "invocations"; "share"; "CPF"; "MACS %" ]
      ()
  in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          c.kernel.Lfk.Kernel.name;
          Table.cell_float ~decimals:0 c.invocations;
          Table.cell_pct c.share;
          Table.cell_float ~decimals:3 (Hierarchy.t_p_cpf c.hierarchy);
          Table.cell_pct (Hierarchy.pct_macs c.hierarchy);
        ])
    t.components;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Application profile: %.2f MFLOPS aggregate\n%s\n"
       t.mflops (Table.render tbl));
  Buffer.add_string buf "\napplication-level advice (by total time saved):\n";
  let top = advise t in
  if top = [] then Buffer.add_string buf "  nothing saves more than 0.5%\n"
  else
    List.iteri
      (fun i ws ->
        if i < 5 then
          Buffer.add_string buf
            (Printf.sprintf "  %4.1f%%  %s: %s\n"
               (100.0 *. ws.application_gain)
               ws.kernel_name ws.suggestion.Advisor.action))
      top;
  Buffer.contents buf
