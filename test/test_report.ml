(* Tests for macs_report: consistency of the embedded paper data, and that
   every table/figure renderer produces plausible output containing the
   values it claims. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---- Paper data consistency ---- *)

let test_paper_rows_complete () =
  Alcotest.(check (list int)) "ten kernels" [ 1; 2; 3; 4; 6; 7; 8; 9; 10; 12 ]
    (List.map (fun r -> r.Macs_report.Paper.id) Macs_report.Paper.rows)

let test_paper_cpf_cpl_consistent () =
  (* CPL = CPF * flops must hold within the paper's rounding *)
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      let derived = r.t_macs_cpf *. float_of_int r.flops in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d t_MACS CPL %.2f vs derived %.2f" r.id
           r.t_macs_cpl derived)
        true
        (Float.abs (derived -. r.t_macs_cpl) <= 0.06 *. r.t_macs_cpl))
    Macs_report.Paper.rows

let test_paper_bounds_ordered () =
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      Alcotest.(check bool) (Printf.sprintf "lfk%d ordering" r.id) true
        (r.t_ma_cpf <= r.t_mac_cpf +. 1e-9
        && r.t_mac_cpf <= r.t_macs_cpf +. 1e-9
        && r.t_macs_cpf <= r.t_p_cpf +. 1e-9))
    Macs_report.Paper.rows

let test_paper_lfk1_example () =
  Alcotest.(check (float 1e-9)) "chime sum" 527.0
    Macs_report.Paper.lfk1_chime_sum;
  Alcotest.(check (float 1e-9)) "527 * 1.02" (527.0 *. 1.02)
    Macs_report.Paper.lfk1_macs_cycles

let test_paper_row_lookup () =
  Alcotest.(check int) "lfk7 flops" 16 (Macs_report.Paper.row 7).flops;
  Alcotest.check_raises "lfk5" Not_found (fun () ->
      ignore (Macs_report.Paper.row 5))

let test_paper_f_bounds_below_total () =
  List.iter
    (fun (r : Macs_report.Paper.kernel_row) ->
      Alcotest.(check bool) (Printf.sprintf "lfk%d f,m <= MACS+eps" r.id) true
        (r.t_macs_f <= r.t_macs_cpl +. 0.01
        && r.t_macs_m <= r.t_macs_cpl +. 0.01))
    Macs_report.Paper.rows

(* ---- Dataset ---- *)

let ds = lazy (Macs_report.Dataset.compute ())

let test_dataset () =
  let d = Lazy.force ds in
  Alcotest.(check int) "ten rows" 10 (List.length d.rows);
  let h = Macs_report.Dataset.find d 7 in
  Alcotest.(check int) "lookup" 7 h.Macs.Hierarchy.kernel.id;
  let ma, mac, macs, p = Macs_report.Dataset.cpf_columns d in
  Alcotest.(check int) "columns" 10 (Array.length ma);
  Alcotest.(check bool) "ordering holds columnwise" true
    (Array.for_all2 ( >= ) mac ma
    && Array.for_all2 ( >= ) macs mac
    && Array.for_all2 (fun a b -> a +. 0.01 >= b) p macs)

(* ---- Table renderers ---- *)

let test_table1_contains_spec () =
  let t = Macs_report.Tables.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle t))
    [ "vector load"; "vector divide"; "1.35"; "21"; "fit" ]

let test_table2_dashes () =
  let t = Macs_report.Tables.table2 (Lazy.force ds) in
  (* kernels 9/10 have MAC = MA: the row must contain dashes *)
  Alcotest.(check bool) "has dashes" true (contains ~needle:"-" t)

let test_table3_renders () =
  let t = Macs_report.Tables.table3 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "t_MA"; "t_MACS"; "4.20" ]

let test_table4_renders () =
  let t = Macs_report.Tables.table4 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "AVG"; "MFLOPS"; "0.840"; "%" ]

let test_table5_renders () =
  let t = Macs_report.Tables.table5 (Lazy.force ds) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "t_x"; "t_a"; "n/a" (* the missing LFK10 row of the paper *) ]

let test_lfk1_example_renders () =
  let t = Macs_report.Tables.lfk1_example () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [ "527.0"; "537.54"; "chime 4" ]

let test_diagnosis_covers_all () =
  let t = Macs_report.Tables.diagnosis (Lazy.force ds) in
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      Alcotest.(check bool) k.name true (contains ~needle:k.name t))
    Lfk.Kernels.all

let test_ablation_tables () =
  let t = Macs_report.Tables.ablation_compiler () in
  Alcotest.(check bool) "ideal column" true (contains ~needle:"ideal" t);
  let m = Macs_report.Tables.ablation_machine () in
  Alcotest.(check bool) "dual LSU column" true (contains ~needle:"dual LSU" m)

(* ---- Figures ---- *)

let test_figure2 () =
  let f = Macs_report.Figures.figure2 () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle f))
    [ "162"; "132"; "load/store"; "multiply" ]

let test_figure3 () =
  let f =
    Macs_report.Figures.figure3
      ~load_average:Macs_report.Report_doc.paper_load_average (Lazy.force ds)
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle f))
    [ "LFK1"; "LFK12"; "MA bound"; "measured multi"; "5.1" ]

let test_figure3_contention_slower () =
  (* the multi-process series must be slower than single-process for the
     memory-bound kernels; spot-check via datasets *)
  let single = Lazy.force ds in
  let multi =
    Macs_report.Dataset.compute
      ~contention:(Convex_memsys.Contention.of_load_average 5.1) ()
  in
  let _, _, _, p1 = Macs_report.Dataset.cpf_columns single in
  let _, _, _, pm = Macs_report.Dataset.cpf_columns multi in
  (* LFK10 (index 8) is heavily memory bound *)
  Alcotest.(check bool) "contention slows lfk10" true (pm.(8) > p1.(8));
  (* and no kernel gets faster under contention *)
  Array.iteri
    (fun i m1 ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d not faster" i)
        true
        (pm.(i) +. 1e-9 >= m1 *. 0.999))
    p1

let test_dataset_deterministic () =
  (* no hidden global state: two computations agree exactly *)
  let a = Macs_report.Dataset.compute () in
  let b = Macs_report.Dataset.compute () in
  List.iter2
    (fun (x : Macs.Hierarchy.t) (y : Macs.Hierarchy.t) ->
      Alcotest.(check (float 0.0))
        (x.kernel.name ^ " t_p identical")
        x.t_p.Convex_vpsim.Measure.cpl y.t_p.Convex_vpsim.Measure.cpl;
      Alcotest.(check (float 0.0))
        (x.kernel.name ^ " MACS identical")
        x.t_macs.Macs.Macs_bound.cpl y.t_macs.Macs.Macs_bound.cpl)
    a.rows b.rows

module Doc = Macs_report.Report_doc

let test_report_doc () =
  let md = Doc.to_markdown () in
  Alcotest.(check bool) "has headings" true (contains ~needle:"## Table 4" md);
  let lines = String.split_on_char '\n' md in
  (* one heading per catalogue entry, in catalogue order *)
  Alcotest.(check (list string))
    "one ## heading per entry"
    (List.map (fun (e : Doc.entry) -> "## " ^ e.title) Doc.catalogue)
    (List.filter (fun l -> String.starts_with ~prefix:"## " l) lines);
  (* every fenced block is closed *)
  Alcotest.(check int) "even fences... counting opens+closes"
    (2 * List.length Doc.catalogue)
    (List.length (List.filter (( = ) "```") lines))

(* ---- the artifact catalogue ---- *)

let verbs = [ "tables"; "figures"; "extensions" ]

let test_catalogue_ids_unique () =
  let ids = List.map (fun (e : Doc.entry) -> e.id) Doc.catalogue in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "at least 20 entries" true (List.length ids >= 20);
  List.iter
    (fun (e : Doc.entry) ->
      Alcotest.(check bool)
        (e.id ^ ": named exactly when under a verb")
        (e.group <> Doc.Report_only)
        (e.name <> None))
    Doc.catalogue

let test_catalogue_names_resolve () =
  List.iter
    (fun verb ->
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (verb ^ " " ^ name ^ " resolves")
            true
            (Doc.select ~verb name <> []))
        ("all" :: Doc.names ~verb);
      Alcotest.(check int) (verb ^ ": unknown name") 0
        (List.length (Doc.select ~verb "no-such-artifact")))
    verbs;
  (* the documented spellings, including the two non-catalogue verbs *)
  List.iter
    (fun (verb, names) ->
      Alcotest.(check (list string)) (verb ^ " names") names
        (Doc.names ~verb))
    [
      ("tables", [ "1"; "2"; "3"; "4"; "5"; "ablations" ]);
      ("figures", [ "2"; "3"; "trace" ]);
    ];
  Alcotest.(check (list string)) "tables ablations"
    [ "ablation_compiler"; "ablation_machine" ]
    (List.map (fun (e : Doc.entry) -> e.id) (Doc.select ~verb:"tables" "ablations"));
  Alcotest.(check bool) "example is report-only" true
    ((Doc.find "lfk1_example").group = Doc.Report_only)

let test_extensions_all_covers () =
  let ids group =
    List.filter_map
      (fun (e : Doc.entry) -> if e.group = group then Some e.id else None)
      Doc.catalogue
  in
  let selected verb =
    List.map (fun (e : Doc.entry) -> e.id) (Doc.select ~verb "all")
  in
  Alcotest.(check (list string)) "extensions all" (ids Doc.Extension)
    (selected "extensions");
  Alcotest.(check bool) "the application profile is an extension" true
    (List.mem "application" (selected "extensions"));
  Alcotest.(check (list string)) "tables all" (ids Doc.Table) (selected "tables");
  Alcotest.(check (list string)) "figures all" (ids Doc.Figure)
    (selected "figures")

let test_catalogue_renders () =
  let ctx = Doc.context () in
  List.iter
    (fun (e : Doc.entry) ->
      Alcotest.(check bool) (e.id ^ " renders") true
        (String.length (e.render ctx) > 0))
    Doc.catalogue;
  let two = Doc.select ~verb:"tables" "ablations" in
  Alcotest.(check string) "render: newline after each, blank line between"
    (String.concat "\n" (List.map (fun (e : Doc.entry) -> e.render ctx ^ "\n") two))
    (Doc.render ctx two)

let () =
  Alcotest.run "macs_report"
    [
      ( "paper-data",
        [
          Alcotest.test_case "rows complete" `Quick test_paper_rows_complete;
          Alcotest.test_case "CPF/CPL consistent" `Quick
            test_paper_cpf_cpl_consistent;
          Alcotest.test_case "bounds ordered" `Quick test_paper_bounds_ordered;
          Alcotest.test_case "lfk1 example" `Quick test_paper_lfk1_example;
          Alcotest.test_case "row lookup" `Quick test_paper_row_lookup;
          Alcotest.test_case "component bounds" `Quick
            test_paper_f_bounds_below_total;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "compute" `Quick test_dataset;
          Alcotest.test_case "deterministic" `Quick
            test_dataset_deterministic;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Quick test_table1_contains_spec;
          Alcotest.test_case "table2" `Quick test_table2_dashes;
          Alcotest.test_case "table3" `Quick test_table3_renders;
          Alcotest.test_case "table4" `Quick test_table4_renders;
          Alcotest.test_case "table5" `Quick test_table5_renders;
          Alcotest.test_case "lfk1 example" `Quick test_lfk1_example_renders;
          Alcotest.test_case "diagnosis" `Quick test_diagnosis_covers_all;
          Alcotest.test_case "ablations" `Quick test_ablation_tables;
        ] );
      ( "report-doc",
        [ Alcotest.test_case "markdown" `Quick test_report_doc ] );
      ( "catalogue",
        [
          Alcotest.test_case "ids unique" `Quick test_catalogue_ids_unique;
          Alcotest.test_case "verb names resolve" `Quick
            test_catalogue_names_resolve;
          Alcotest.test_case "extensions all covers every extension" `Quick
            test_extensions_all_covers;
          Alcotest.test_case "every entry renders" `Quick
            test_catalogue_renders;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure2" `Quick test_figure2;
          Alcotest.test_case "figure3" `Quick test_figure3;
          Alcotest.test_case "contention slows" `Quick
            test_figure3_contention_slower;
        ] );
    ]
