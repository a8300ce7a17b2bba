(* Command-line front end for the MACS performance-modeling library:
   reproduce the paper's tables and figures, analyze individual kernels,
   dump compiled listings, and run calibration sweeps. *)

open Cmdliner

(* Machine arguments accept the full Machine_dsl grammar, so presets and
   what-if overrides ("c240;banks=64;pipes.mul=2") share one converter. *)
let machine_of_name = Convex_dsl.Machine_dsl.of_name_or_spec

let opt_of_name = function
  | "v61" -> Ok Fcc.Opt_level.v61
  | "ideal" -> Ok Fcc.Opt_level.ideal
  | "loads-first" -> Ok Fcc.Opt_level.loads_first
  | "packed" -> Ok Fcc.Opt_level.packed
  | s -> Error (Printf.sprintf "unknown optimization level %S" s)

let machine_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (machine_of_name s) in
  let print fmt (m : Convex_machine.Machine.t) =
    Format.fprintf fmt "%s" m.name
  in
  Arg.conv (parse, print)

let opt_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (opt_of_name s) in
  let print fmt o = Format.fprintf fmt "%s" (Fcc.Opt_level.name o) in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Convex_machine.Machine.c240
    & info [ "machine" ] ~docv:"MACHINE"
        ~doc:
          "Machine variant (c240 (default), ideal, no-bubbles, no-refresh, \
           dual-lsu, broken-hierarchy) or a machine-description spec with \
           what-if overrides, e.g. 'c240;banks=64;pipes.mul=2'.")

let opt_arg =
  Arg.(
    value
    & opt opt_conv Fcc.Opt_level.v61
    & info [ "opt" ] ~docv:"LEVEL"
        ~doc:"Compiler level: v61 (default), ideal, loads-first, packed.")

let fault_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Convex_fault.Fault.parse s)
  in
  let print fmt (f : Convex_fault.Fault.t) = Convex_fault.Fault.pp fmt f in
  Arg.conv (parse, print)

let fault_doc =
  "Fault plan: a preset ("
  ^ String.concat ", "
      (List.map (fun (n, _, _) -> n) Convex_fault.Fault.presets)
  ^ ") or a clause spec such as 'seed=7;degrade-bank=0*4;jitter=6'."

let faults_arg =
  Arg.(
    value
    & opt fault_conv Convex_fault.Fault.none
    & info [ "faults" ] ~docv:"SPEC" ~doc:fault_doc)

let kernel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k"; "kernel" ] ~docv:"N"
        ~doc:"LFK kernel number (1,2,3,4,6,7,8,9,10,12); all when omitted.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for cell execution (default: the host's \
           recommended domain count).  --jobs 1 reproduces the historical \
           sequential output byte for byte; higher values journal through \
           per-worker shards that are merged back into the same canonical \
           bytes.")

(* --cache DIR (or MACS_CACHE in the environment) turns on the
   content-addressed result cache for suite/fuzz/chaos; --no-cache wins
   over both.  Counters go to stderr only — stdout renders are pinned
   byte-identical between cold and warm runs. *)
let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "MACS_CACHE")
        ~doc:
          "Content-addressed result cache directory: completed cells and \
           cases are memoised under a digest of everything that determines \
           them, so a warm re-run replays them without simulating — with \
           byte-identical output.  Created if missing.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache) and $(b,MACS_CACHE); compute everything.")

let cache_of cache no_cache = if no_cache then None else cache

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:
          "Emit the cache hit/miss/store/quarantine counters as a single \
           machine-parseable JSON line on stderr instead of prose.")

let report_cache_counters ?(json = false) = function
  | None -> ()
  | Some c ->
      if json then Printf.eprintf "%s\n" (Convex_cache.Cache.counters_json c)
      else
        Printf.eprintf "%s\n"
          (Format.asprintf "%a" Convex_cache.Cache.pp_counters c);
      flush stderr

let kernels_of = function
  | None -> Lfk.Kernels.all
  | Some id -> (
      try [ Lfk.Kernels.find id ]
      with Not_found ->
        prerr_endline "no such kernel (valid: 1..12 except 13+)";
        exit 1)

let analyze_cmd =
  let run machine opt kernel =
    List.iter
      (fun k ->
        if Fcc.Vectorizer.vectorizable k then begin
          let h = Macs.Hierarchy.analyze ~machine ~opt k in
          Format.printf "%a@.@." Macs.Hierarchy.pp_summary h;
          print_string (Macs.Diagnose.report h);
          print_newline ()
        end
        else begin
          (* loop-carried: scalar mode, scalar bounds *)
          let c = Fcc.Compiler.compile ~opt k in
          let b = Macs.Scalar_bound.of_compiled c in
          let m =
            Convex_vpsim.Measure.run_exn ~machine
              ~flops_per_iteration:c.flops_per_iteration c.job
          in
          Format.printf "%s (scalar mode: %a)@.%a@.measured %a@.@."
            k.Lfk.Kernel.name Fcc.Vectorizer.pp_verdict c.verdict
            Macs.Scalar_bound.pp b Convex_vpsim.Measure.pp m;
          print_string (Macs.Advisor.report ~machine k);
          print_newline ()
        end)
      (kernels_of kernel)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Full MACS hierarchy and gap diagnosis")
    Term.(const run $ machine_arg $ opt_arg $ kernel_arg)

(* `tables`, `figures` and `extensions` print catalogue entries picked by
   name; the names, each verb's "all" and its help come from the list *)
module Doc = Macs_report.Report_doc

let which_arg ~verb ~docv =
  Arg.(
    value & pos 0 string "all"
    & info [] ~docv
        ~doc:(String.concat ", " (Doc.names ~verb) ^ ", or all."))

let print_catalogue ~verb ~noun ctx which =
  match Doc.select ~verb which with
  | [] ->
      prerr_endline (Printf.sprintf "unknown %s %S" noun which);
      exit 1
  | entries -> print_string (Doc.render ctx entries)

let tables_cmd =
  let run machine opt which =
    print_catalogue ~verb:"tables" ~noun:"table"
      (Doc.context ~machine ~opt ())
      which
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's tables")
    Term.(
      const run $ machine_arg $ opt_arg
      $ which_arg ~verb:"tables" ~docv:"TABLE")

let figures_cmd =
  let load =
    Arg.(
      value
      & opt float Doc.paper_load_average
      & info [ "load" ] ~docv:"L"
          ~doc:"Load average for the multi-process series of figure 3.")
  in
  let run machine opt load_average which =
    print_catalogue ~verb:"figures" ~noun:"figure"
      (Doc.context ~machine ~opt ~load_average ())
      which
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figures")
    Term.(
      const run $ machine_arg $ opt_arg $ load
      $ which_arg ~verb:"figures" ~docv:"FIG")

let listing_cmd =
  let run opt kernel =
    List.iter
      (fun k ->
        let c = Fcc.Compiler.compile ~opt k in
        print_string (Fcc.Compiler.listing c);
        if c.spilled_scalars <> [] then
          Printf.printf "; spilled scalars: %s\n"
            (String.concat ", " c.spilled_scalars);
        print_newline ())
      (kernels_of kernel)
  in
  Cmd.v
    (Cmd.info "listing" ~doc:"Compiled assembly of a kernel's inner loop")
    Term.(const run $ opt_arg $ kernel_arg)

let budget_cycles_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"CYCLES"
        ~doc:
          "Watchdog cap on simulated cycles per kernel run; an over-budget \
           run degrades to its analytic estimate instead of finishing.")

let budget_wall_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-wall" ] ~docv:"SECONDS"
        ~doc:"Watchdog cap on host wall-clock seconds per kernel run.")

let simulate_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the event trace.")
  in
  let run machine kernel faults trace cycles wall =
    let budget =
      Convex_harness.Budget.make ?max_cycles:cycles ?max_wall_s:wall ()
    in
    List.iter
      (fun k ->
        let c = Fcc.Compiler.compile k in
        let guard =
          if Convex_fault.Fault.is_none faults then
            Convex_vpsim.Sim.default_guard
          else 50_000
        in
        (* one watchdog per run: a reused closure would carry the previous
           kernel's wall-clock start time *)
        let watchdog =
          Convex_harness.Budget.watchdog ~site:("simulate:" ^ k.name) budget
        in
        match
          Convex_vpsim.Sim.run ~machine ~faults ~guard ?watchdog ~trace c.job
        with
        | Error (Macs_util.Macs_error.Budget_exceeded _ as e) ->
            let est = Macs.Estimate.of_compiled ~machine c in
            Printf.printf
              "%s: ESTIMATED %.3f CPL, %.3f CPF (%s bound; %s)\n" k.name
              est.Macs.Estimate.cpl est.Macs.Estimate.cpf
              est.Macs.Estimate.level
              (Macs_util.Macs_error.to_string e)
        | Error e ->
            Printf.printf "%s: FAILED %s\n" k.name
              (Macs_util.Macs_error.to_string e)
        | Ok r ->
            let s = r.stats in
            Printf.printf
              "%s: %.0f cycles, %.3f CPL, %.3f CPF (%d strips, %d memory \
               accesses, %d bank-conflict stalls, %d refresh stalls, %d \
               port stalls, %d fault stalls)\n"
              k.name s.cycles
              (Convex_vpsim.Sim.cpl r)
              (Convex_vpsim.Sim.cpf r
                 ~flops_per_iteration:c.flops_per_iteration)
              s.strips s.mem_accesses s.bank_conflict_stalls s.refresh_stalls
              s.port_stalls s.fault_stalls;
            if trace then
              List.iter
                (fun e -> Format.printf "  %a@." Convex_vpsim.Sim.pp_event e)
                r.events)
      (kernels_of kernel)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a kernel on the cycle-level simulator")
    Term.(
      const run $ machine_arg $ kernel_arg $ faults_arg $ trace
      $ budget_cycles_arg $ budget_wall_arg)

let print_entry id = print_string (Doc.render (Doc.context ()) [ Doc.find id ])

let calibrate_cmd =
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Fit X/Y/Z/B from calibration loops (Table 1)")
    Term.(const print_entry $ const "table1")

let example_cmd =
  Cmd.v
    (Cmd.info "example" ~doc:"The LFK1 worked example of paper section 3.5")
    Term.(const print_entry $ const "lfk1_example")

let extensions_cmd =
  Cmd.v
    (Cmd.info "extensions"
       ~doc:
         "Beyond the paper: scalar mode, parallel vector mode, the D (stride) \
          bound, and the other extensions")
    Term.(
      const (print_catalogue ~verb:"extensions" ~noun:"extension")
      $ const (Doc.context ())
      $ which_arg ~verb:"extensions" ~docv:"EXT")

let export_cmd =
  let out =
    Arg.(
      value & opt string "macs_results.csv"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  let run machine opt out =
    let ds = Macs_report.Dataset.compute ~machine ~opt () in
    let rows =
      List.map
        (fun (h : Macs.Hierarchy.t) ->
          [
            string_of_int h.kernel.id;
            string_of_int h.flops;
            Printf.sprintf "%.6f" (Macs.Hierarchy.t_ma_cpf h);
            Printf.sprintf "%.6f" (Macs.Hierarchy.t_mac_cpf h);
            Printf.sprintf "%.6f" (Macs.Hierarchy.t_macs_cpf h);
            Printf.sprintf "%.6f" (Macs.Hierarchy.t_p_cpf h);
            Printf.sprintf "%.6f" h.t_a.Convex_vpsim.Measure.cpl;
            Printf.sprintf "%.6f" h.t_x.Convex_vpsim.Measure.cpl;
            Printf.sprintf "%.6f" h.t_macs_f.Macs.Macs_bound.cpl;
            Printf.sprintf "%.6f" h.t_macs_m.Macs.Macs_bound.cpl;
          ])
        ds.rows
    in
    Macs_util.Csv.write_file out
      ~header:
        [
          "lfk"; "flops"; "t_ma_cpf"; "t_mac_cpf"; "t_macs_cpf"; "t_p_cpf";
          "t_a_cpl"; "t_x_cpl"; "t_macs_f_cpl"; "t_macs_m_cpl";
        ]
      rows;
    Printf.printf "wrote %s (%d kernels)\n" out (List.length rows)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the full dataset as CSV")
    Term.(const run $ machine_arg $ opt_arg $ out)

let bound_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE.s" ~doc:"Assembly listing to analyze.")
  in
  let run machine file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    match Convex_isa.Asm.parse_program text with
    | Error e ->
        prerr_endline ("parse error: " ^ e);
        exit 1
    | Ok program ->
        let body = Convex_isa.Program.body program in
        let chimes = Macs.Chime.partition ~machine body in
        List.iteri
          (fun i c -> Format.printf "%d. %a@." (i + 1) Macs.Chime.pp c)
          chimes;
        let bound = Macs.Macs_bound.compute ~machine body in
        Format.printf "@.%a@." Macs.Macs_bound.pp bound;
        let d = Macs.Dbound.compute ~machine body in
        Format.printf "%a@." Macs.Dbound.pp d;
        let mac = Macs.Counts.mac_of_instrs body in
        Printf.printf "MAC bound: %d CPL (t_f %d, t_m %d)\n"
          (Macs.Counts.t_bound mac) (Macs.Counts.t_f mac)
          (Macs.Counts.t_m mac)
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:
         "Chime partition and MACS/MACD bounds for an arbitrary assembly           listing")
    Term.(const run $ machine_arg $ file)

let trace_cmd =
  let out =
    Arg.(
      value & opt string "macs_trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON output path.")
  in
  let elements =
    Arg.(
      value & opt int 256
      & info [ "n" ] ~docv:"N" ~doc:"Elements to trace (default 256).")
  in
  let run machine kernel out elements =
    let k =
      match kernel with
      | Some id -> (
          try Lfk.Kernels.find id
          with Not_found ->
            prerr_endline "no such kernel";
            exit 1)
      | None -> Lfk.Kernels.find 1
    in
    let c = Fcc.Compiler.compile k in
    let seg = List.hd c.job.Convex_vpsim.Job.segments in
    let job =
      {
        c.job with
        Convex_vpsim.Job.segments =
          [ { seg with Convex_vpsim.Job.vl = elements } ];
      }
    in
    let r = Convex_vpsim.Sim.run_exn ~machine ~trace:true job in
    Convex_vpsim.Trace_export.write_file out r;
    Printf.printf "wrote %s (%d events; open in chrome://tracing)\n" out
      (List.length r.Convex_vpsim.Sim.events)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export a simulated run as Chrome trace-event JSON")
    Term.(const run $ machine_arg $ kernel_arg $ out $ elements)

let advise_cmd =
  let run machine kernel =
    List.iter
      (fun k -> print_string (Macs.Advisor.report ~machine k))
      (kernels_of kernel)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Ranked, quantified optimization advice (paper conclusion)")
    Term.(const run $ machine_arg $ kernel_arg)

let suite_cmd =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Checkpoint every completed kernel to $(docv) so an \
             interrupted run can be resumed.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay completed rows from the journal (byte-identical) and \
             continue at the first missing kernel.  Requires --journal.")
  in
  let retry_failed =
    Arg.(
      value & flag
      & info [ "retry-failed" ]
          ~doc:
            "Re-run only the journal rows that carry diagnostics (failed \
             or estimated), keeping every measured row.  Implies --resume.")
  in
  let budget_cycles =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:
            "Watchdog cap on simulated cycles per kernel run; an \
             over-budget kernel degrades to its analytic estimate.")
  in
  let budget_wall =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-wall" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog cap on host wall-clock seconds per kernel run.")
  in
  let run machine opt faults journal resume retry_failed cycles wall jobs
      cache no_cache stats_json =
    let budget =
      Convex_harness.Budget.make ?max_cycles:cycles ?max_wall_s:wall ()
    in
    if (resume || retry_failed) && journal = None then (
      prerr_endline "macs_cli suite: --resume/--retry-failed need --journal";
      exit 2);
    match
      Convex_harness.Supervisor.run ~machine ~opt ~faults ~budget ?journal
        ~resume ~retry_failed ~jobs
        ?cache:(cache_of cache no_cache) ()
    with
    | Ok { suite; stats; quarantined; cache_counters } ->
        report_cache_counters ~json:stats_json cache_counters;
        print_string (Macs_report.Suite.render suite);
        if stats.Convex_harness.Supervisor.resumed > 0 then
          Printf.printf
            "supervisor: %d row%s replayed from the journal, %d run (%d \
             estimated)\n"
            stats.Convex_harness.Supervisor.resumed
            (if stats.Convex_harness.Supervisor.resumed = 1 then "" else "s")
            stats.Convex_harness.Supervisor.executed
            stats.Convex_harness.Supervisor.estimated;
        if quarantined <> [] then (
          List.iter
            (fun p ->
              Printf.printf
                "supervisor: cell %d QUARANTINED after %d attempt%s: %s\n"
                p.Convex_exec.Executor.index p.Convex_exec.Executor.attempts
                (if p.Convex_exec.Executor.attempts = 1 then "" else "s")
                p.Convex_exec.Executor.error)
            quarantined;
          exit 1)
    | Error msg ->
        prerr_endline ("macs_cli suite: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run the full Livermore suite (10 vector + 2 scalar kernels) with           output verification, supervised: watchdog budgets, journal           checkpoint/resume, graceful degradation to analytic estimates")
    Term.(
      const run $ machine_arg $ opt_arg $ faults_arg $ journal $ resume
      $ retry_failed $ budget_cycles $ budget_wall $ jobs_arg $ cache_arg
      $ no_cache_arg $ stats_json_arg)

let resilience_cmd =
  let plans =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "faults" ] ~docv:"SPEC" ~doc:(fault_doc ^ " Repeatable."))
  in
  let run machine opt plans =
    let plans =
      match plans with
      | [] ->
          (* default scenario: two derated bank modules *)
          [ Result.get_ok (Convex_fault.Fault.parse "bank-degraded") ]
      | ps -> ps
    in
    List.iteri
      (fun i plan ->
        if i > 0 then print_newline ();
        print_string (Macs_report.Resilience.render
                        (Macs_report.Resilience.run ~machine ~opt plan)))
      plans
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Measure each vector kernel healthy vs. under a fault plan:           slowdowns, MACS bound-gap shifts, and the \xc2\xa74.2 contention           probes on degraded banks")
    Term.(const run $ machine_arg $ opt_arg $ plans)

let validate_cmd =
  let tol =
    Arg.(
      value
      & opt float Macs.Oracle.default_tol
      & info [ "tol" ] ~docv:"FRAC"
          ~doc:"Relative tolerance for every bound comparison (default 0.02).")
  in
  let run machine opt faults tol cycles wall =
    let faults =
      if Convex_fault.Fault.is_none faults then None else Some faults
    in
    let budget =
      Convex_harness.Budget.make ?max_cycles:cycles ?max_wall_s:wall ()
    in
    (* per-kernel watchdog factory: each kernel gets a fresh closure (and
       wall-clock start); a blown budget lands that kernel in the
       report's skipped section instead of aborting the validation *)
    let watchdog =
      if Convex_harness.Budget.is_none budget then None
      else Some (fun ~site -> Convex_harness.Budget.watchdog ~site budget)
    in
    let r =
      Macs.Oracle.validate ~tol ~opt ~machine ?faults ?watchdog ()
    in
    print_string (Macs.Oracle.render r);
    if r.Macs.Oracle.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-validate the machine against the bounds hierarchy: checks \
          M <= MA <= MAC <= MACS <= measured, schedule monotonicity and \
          eq. 18 on every vectorized kernel; exits non-zero on any \
          violation")
    Term.(
      const run $ machine_arg $ opt_arg $ faults_arg $ tol
      $ budget_cycles_arg $ budget_wall_arg)

let report_cmd =
  let out =
    Arg.(
      value & opt string "RESULTS.md"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Markdown output path.")
  in
  let run out =
    Doc.write_file out;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Write every reproduced table and figure to one Markdown file")
    Term.(const run $ out)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (default 42).")
  in
  let count =
    Arg.(
      value & opt int 500
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of generated cases (default 500).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Whole-campaign wall-clock cap; generation stops (gracefully) \
             once exhausted.")
  in
  let sim_budget =
    Arg.(
      value & opt float 10.0
      & info [ "sim-budget" ] ~docv:"SECONDS"
          ~doc:
            "Per-simulation watchdog: a single simulated run over this \
             wall-clock allowance is cancelled and skipped (default 10).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Append every shrunk counterexample to this corpus journal \
             (created if missing) so it replays in the test suite forever.")
  in
  let no_sim =
    Arg.(
      value & flag
      & info [ "no-sim" ]
          ~doc:
            "Functional stages only (compile, differential execution, \
             listing round trip) — no simulator, no bound oracle.")
  in
  let plans =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            (fault_doc
           ^ " Repeatable; defaults to every stock preset.  Each kernel \
              case samples one plan, rotating."))
  in
  let run seed count machine budget sim_budget corpus no_sim plans jobs
      cache no_cache stats_json =
    let cfg =
      {
        Convex_fuzz.Driver.seed;
        count;
        machine;
        max_wall_s = budget;
        budget = Convex_harness.Budget.make ~max_wall_s:sim_budget ();
        corpus;
        sim = not no_sim;
        jobs;
        cache = cache_of cache no_cache;
        fault_plans =
          (match plans with
          | [] -> Convex_fuzz.Driver.default_config.fault_plans
          | ps -> ps);
      }
    in
    let progress i =
      if i > 0 && i mod 50 = 0 then (
        Printf.eprintf "fuzz: %d/%d cases\n" i count;
        flush stderr)
    in
    let summary =
      (* a corpus the run cannot append to is refused before any case *)
      match Convex_fuzz.Driver.run ~progress cfg with
      | s -> s
      | exception Macs_util.Macs_error.Error e ->
          prerr_endline ("macs_cli fuzz: " ^ Macs_util.Macs_error.to_string e);
          exit 1
    in
    report_cache_counters ~json:stats_json
      summary.Convex_fuzz.Driver.cache_counters;
    print_endline (Convex_fuzz.Driver.render_summary summary);
    if not (Convex_fuzz.Driver.clean summary) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing with shrinking: random well-formed kernels \
          through the compiler at every level, compiled code vs. a direct \
          IR evaluator bit-for-bit, healthy and faulted simulation, the \
          MACS bound oracle, and the assembly round trip; failures are \
          shrunk to minimal cases and optionally persisted to a replay \
          corpus; exits non-zero on any violation")
    Term.(
      const run $ seed $ count $ machine_arg $ budget $ sim_budget
      $ corpus $ no_sim $ plans $ jobs_arg $ cache_arg $ no_cache_arg
      $ stats_json_arg)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (default 42).")
  in
  let cells =
    Arg.(
      value & opt int 24
      & info [ "cells" ] ~docv:"K"
          ~doc:"Number of campaign cells (default 24).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Checkpoint every completed cell to this journal so a killed \
             campaign can be resumed.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay completed cells from the journal (repairing a torn \
             tail first) and run only the missing ones.")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"CYCLES"
          ~doc:
            "Per-cell simulated-cycle watchdog.  Cycles, not wall-clock, so \
             the campaign journal stays byte-identical across hosts.")
  in
  let kill_cells =
    Arg.(
      value & opt_all int []
      & info [ "kill-cell" ] ~docv:"I"
          ~doc:
            "Inject a worker-killing failure at cell $(docv) (repeatable): \
             the cell is quarantined as a poison record and the campaign \
             degrades to fewer workers instead of aborting.")
  in
  let run seed cells machine journal resume budget jobs kill_cells cache
      no_cache stats_json =
    if resume && journal = None then (
      prerr_endline "macs_cli chaos: --resume needs --journal";
      exit 2);
    let cfg =
      {
        Convex_chaos.Campaign.default_config with
        seed;
        cells;
        machine;
        journal;
        resume;
        jobs;
        kill_cells;
        cache = cache_of cache no_cache;
        budget =
          (match budget with
          | Some c -> Convex_harness.Budget.make ~max_cycles:c ()
          | None -> Convex_harness.Budget.none);
      }
    in
    let progress i =
      if i > 0 && i mod 10 = 0 then (
        Printf.eprintf "chaos: cell %d/%d\n" i cells;
        flush stderr)
    in
    match Convex_chaos.Campaign.run ~progress cfg with
    | Error e ->
        prerr_endline ("macs_cli chaos: " ^ e);
        exit 2
    | Ok outcome ->
        report_cache_counters ~json:stats_json
          outcome.Convex_chaos.Campaign.cache_counters;
        print_string (Convex_chaos.Campaign.render outcome);
        if not (Convex_chaos.Campaign.clean outcome) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos campaign over the fault space: seeded cells of fault preset \
          mutations (half transient, with explicit begin/end windows) x LFK \
          kernels, each checked against recovery SLOs — typed degradation \
          only, checksum intact, bound oracle, faulted-never-faster, and \
          post-window convergence back to healthy-tail timing; violations \
          are delta-debugged to a minimal fault plan; exits non-zero on any \
          violation")
    Term.(
      const run $ seed $ cells $ machine_arg $ journal $ resume $ budget
      $ jobs_arg $ kill_cells $ cache_arg $ no_cache_arg $ stats_json_arg)

let cache_cmd =
  let module Cache = Convex_cache.Cache in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Cache directory (created if missing).")
  in
  let stat_cmd =
    let run dir =
      let t = Cache.open_dir dir in
      let s = Cache.stat t in
      Printf.printf
        "%s: %d entr%s, %d bytes, %d quarantined file%s\n%d logged run%s \
         (total: %s)\n"
        dir s.Cache.entries
        (if s.Cache.entries = 1 then "y" else "ies")
        s.Cache.bytes s.Cache.quarantine
        (if s.Cache.quarantine = 1 then "" else "s")
        s.Cache.runs
        (if s.Cache.runs = 1 then "" else "s")
        (Format.asprintf "%a" Cache.pp_counters s.Cache.total)
    in
    Cmd.v
      (Cmd.info "stat" ~doc:"Entry count, size, quarantine, logged runs")
      Term.(const run $ dir_arg)
  in
  let verify_cmd =
    let run dir =
      let t = Cache.open_dir dir in
      let r = Cache.verify t in
      Printf.printf "%s: %d entries checked, %d ok, %d quarantined\n" dir
        r.Cache.checked r.Cache.ok
        (List.length r.Cache.bad);
      List.iter
        (fun (key, reason) -> Printf.printf "  %s: %s\n" key reason)
        r.Cache.bad;
      if r.Cache.bad <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-verify every entry's checksum; corrupt entries are moved to \
            quarantine/ (exit 1 if any were)")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let max_bytes =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:
              "Evict oldest entries until the object store fits $(docv) \
               bytes.")
    in
    let run dir max_bytes =
      let t = Cache.open_dir dir in
      let r = Cache.gc ?max_bytes t in
      Printf.printf
        "%s: kept %d, evicted %d (%d bytes freed), purged %d quarantined \
         and %d orphaned tmp file%s\n"
        dir r.Cache.kept r.Cache.evicted r.Cache.freed_bytes
        r.Cache.purged_quarantine r.Cache.purged_tmp
        (if r.Cache.purged_tmp = 1 then "" else "s")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Purge quarantined and orphaned tmp files; with --max-bytes, \
            also evict oldest entries to fit the budget")
      Term.(const run $ dir_arg $ max_bytes)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect and maintain a content-addressed result cache directory \
          (see --cache on suite, fuzz and chaos)")
    [ stat_cmd; verify_cmd; gc_cmd ]

let crash_sweep_cmd =
  let module Sweep = Convex_chaos.Crash_sweep in
  let scenarios_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SCENARIO"
          ~doc:
            "Scenarios to sweep: exec-shards, corpus, chaos, fuzz-warm, \
             serve, suite.  Default: every one but the (expensive) suite.")
  in
  let stride =
    Arg.(
      value & opt int 1
      & info [ "stride" ] ~docv:"N"
          ~doc:
            "Arm every $(docv)'th write boundary instead of all of them \
             (the first and last are always included).")
  in
  let cross =
    Arg.(
      value & flag
      & info [ "cross" ]
          ~doc:
            "Run every crash mode (before, torn, after) at every boundary \
             instead of rotating the modes across boundaries.")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Sweep workspace (default: a fresh directory under the system \
             temp dir).  Failing injection points leave their wreckage \
             here for inspection.")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the workspace even when every point passed.")
  in
  let run names stride cross dir keep =
    let names =
      match names with
      | [] -> [ "exec-shards"; "corpus"; "chaos"; "fuzz-warm" ]
      | ns -> ns
    in
    let scenarios =
      List.map
        (fun n ->
          match Sweep.scenario_of_name n with
          | Some s -> s
          | None ->
              prerr_endline ("macs_cli crash-sweep: unknown scenario " ^ n);
              exit 2)
        names
    in
    let dir =
      match dir with
      | Some d -> d
      | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "macs-crash-sweep.%d" (Unix.getpid ()))
    in
    let failed = ref false in
    List.iter
      (fun (s : Sweep.scenario) ->
        let r = Sweep.sweep ~cross ~stride ~dir:(Filename.concat dir s.Sweep.name) s in
        print_string (Sweep.render r);
        if not (Sweep.ok r) then failed := true)
      scenarios;
    if !failed then (
      Printf.printf "crash sweep FAILED; evidence kept under %s\n" dir;
      exit 1)
    else if not keep then Sweep.cleanup dir
  in
  Cmd.v
    (Cmd.info "crash-sweep"
       ~doc:
         "Deterministic crash-point injection: run each scenario once per \
          durable write boundary with a simulated process death armed at \
          that boundary, recover, and require byte-identical artifacts — \
          exits non-zero if any injection point breaks recovery")
    Term.(const run $ scenarios_arg $ stride $ cross $ dir $ keep)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "macs_cli" ~version:"1.0.0"
      ~doc:
        "Hierarchical performance modeling with MACS: a reproduction of \
         Boyd & Davidson (ISCA 1993) on a simulated Convex C-240"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            analyze_cmd; tables_cmd; figures_cmd; listing_cmd; simulate_cmd;
            calibrate_cmd; example_cmd; extensions_cmd; export_cmd;
            advise_cmd; suite_cmd; resilience_cmd; bound_cmd; trace_cmd;
            validate_cmd; report_cmd; fuzz_cmd; chaos_cmd; cache_cmd;
            crash_sweep_cmd;
          ]))
