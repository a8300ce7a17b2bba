type group = Table | Ablation | Figure | Extension | Report_only
type context = { dataset : Dataset.t Lazy.t; load_average : float }

type entry = {
  id : string;
  title : string;
  group : group;
  name : string option;
  render : context -> string;
}

let paper_load_average = 5.1

let context ?machine ?opt ?(load_average = paper_load_average) () =
  { dataset = lazy (Dataset.compute ?machine ?opt ()); load_average }

let entry ?name id group title render = { id; title; group; name; render }
let with_ds f ctx = f (Lazy.force ctx.dataset)
let const f _ = f ()

(* the weighted mix the application profile (X12) renders *)
let application_mix = [ (7, 40.0); (1, 30.0); (10, 20.0); (2, 10.0) ]

let catalogue =
  [
    entry ~name:"1" "table1" Table "Table 1 — instruction timing (calibration)"
      (const Tables.table1);
    entry ~name:"2" "figure2" Figure "Figure 2 — chaining and tailgating"
      (const Figures.figure2);
    entry ~name:"2" "table2" Table "Table 2 — LFK workload"
      (with_ds Tables.table2);
    entry ~name:"3" "table3" Table "Table 3 — bounds (CPL)"
      (with_ds Tables.table3);
    entry ~name:"4" "table4" Table "Table 4 — bounds vs measured (CPF)"
      (with_ds Tables.table4);
    entry ~name:"5" "table5" Table "Table 5 — A/X measurements (CPL)"
      (with_ds Tables.table5);
    entry ~name:"3" "figure3" Figure "Figure 3 — bounds hierarchy per kernel"
      (fun ctx ->
        Figures.figure3 ~load_average:ctx.load_average
          (Lazy.force ctx.dataset));
    entry "lfk1_example" Report_only "LFK1 worked example (paper section 3.5)"
      (const Tables.lfk1_example);
    entry "diagnosis" Report_only "Gap diagnosis (paper section 4.4)"
      (with_ds Tables.diagnosis);
    entry ~name:"ablations" "ablation_compiler" Ablation
      "Ablation — compiler levels" (const Tables.ablation_compiler);
    entry ~name:"ablations" "ablation_machine" Ablation
      "Ablation — machine variants" (const Tables.ablation_machine);
    entry "utilization" Report_only "Pipe utilization"
      (with_ds Tables.utilization);
    entry ~name:"scalar" "scalar_mode" Extension "Extension — scalar mode"
      (const Tables.scalar_mode);
    entry ~name:"parallel" "parallel_mode" Extension
      "Extension — parallel vector mode" (const Tables.parallel_mode);
    entry ~name:"strides" "stride_sweep" Extension
      "Extension — the D (stride) bound" (const Tables.stride_sweep);
    entry ~name:"roofline" "roofline" Extension "Extension — roofline view"
      (const Tables.roofline);
    entry ~name:"hockney" "hockney" Extension
      "Extension — Hockney characterization" (const Tables.hockney);
    entry ~name:"design-space" "design_space" Extension
      "Extension — design space" (const Tables.design_space);
    entry ~name:"application" "application" Extension
      "Extension — application profile" (fun _ ->
        Macs.Application.render
          (Macs.Application.analyze
             (List.map (fun (id, w) -> (Lfk.Kernels.find id, w))
                application_mix)));
    entry ~name:"gallery" "gallery" Extension "Extension — kernel gallery"
      (const Tables.gallery);
    entry ~name:"trace" "pipeline_trace" Figure "Pipeline trace (LFK1)"
      (fun _ -> Figures.pipeline_trace ());
    entry "suite" Report_only "Livermore suite" (fun _ ->
        Suite.render (Suite.run ()));
    entry "advice" Report_only "Goal-directed advice" (const Tables.advice);
  ]

let find id = List.find (fun e -> e.id = id) catalogue

let verb_of = function
  | Table | Ablation -> Some "tables"
  | Figure -> Some "figures"
  | Extension -> Some "extensions"
  | Report_only -> None

let of_verb verb = List.filter (fun e -> verb_of e.group = Some verb) catalogue

let names ~verb =
  List.fold_left
    (fun acc e ->
      match e.name with
      | Some n when not (List.mem n acc) -> acc @ [ n ]
      | _ -> acc)
    [] (of_verb verb)

(* "all" is every entry of the verb but the ablations, which `tables
   ablations` prints on their own *)
let select ~verb = function
  | "all" -> List.filter (fun e -> e.group <> Ablation) (of_verb verb)
  | name -> List.filter (fun e -> e.name = Some name) (of_verb verb)

let render ctx entries =
  String.concat "\n" (List.map (fun e -> e.render ctx ^ "\n") entries)

let to_markdown () =
  let ctx = context () in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf
    "# MACS reproduction — generated results\n\n\
     Regenerate with `dune exec bench/main.exe` or \
     `dune exec bin/macs_cli.exe -- report`.\n";
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "\n## %s\n\n```\n" e.title);
      let body = e.render ctx in
      Buffer.add_string buf body;
      if body = "" || body.[String.length body - 1] <> '\n' then
        Buffer.add_char buf '\n';
      Buffer.add_string buf "```\n")
    catalogue;
  Buffer.contents buf

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_markdown ()))
