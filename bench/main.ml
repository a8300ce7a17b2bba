(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printing ours-vs-paper values), then times each generator
   with Bechamel.

   The regeneration pass prints the same Markdown document as
   `macs_cli report`, and the timing pass has one Bechamel test per entry
   of the artifact catalogue (Macs_report.Report_doc), named by its id,
   plus the full dataset computation and per-stage micro-benchmarks
   (compile / bound / simulate) that show where the library spends its
   time.

   A separate executor pass times the three campaign front ends (suite,
   fuzz, chaos) end to end at --jobs 1 vs --jobs N through
   Convex_exec.Executor and writes the wall-clock numbers, together with
   the per-stage micro-benchmarks, to BENCH_exec.json.

   Flags: --bench-only skips artifact regeneration; --print-only skips the
   Bechamel timing pass and the executor pass. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Artifact regeneration                                               *)
(* ------------------------------------------------------------------ *)

let regenerate () = print_string (Macs_report.Report_doc.to_markdown ())

(* ------------------------------------------------------------------ *)
(* Bechamel benchmarks                                                 *)
(* ------------------------------------------------------------------ *)

let artifact_tests () =
  (* one dataset, forced here and shared by every renderer that reads it *)
  let ctx = Macs_report.Report_doc.context () in
  ignore (Lazy.force ctx.dataset);
  Test.make ~name:"dataset_full"
    (Staged.stage (fun () -> Macs_report.Dataset.compute ()))
  :: List.map
       (fun (e : Macs_report.Report_doc.entry) ->
         Test.make ~name:e.id (Staged.stage (fun () -> e.render ctx)))
       Macs_report.Report_doc.catalogue

let stage_tests () =
  let k1 = Lfk.Kernels.find 1 and k8 = Lfk.Kernels.find 8 in
  let c1 = Fcc.Compiler.compile k1 and c8 = Fcc.Compiler.compile k8 in
  (* LFK2 declares an alias (XS), so its layout exercises Layout.alias *)
  let c2 = Fcc.Compiler.compile (Lfk.Kernels.find 2) in
  let machine = Convex_machine.Machine.c240 in
  let body1 = Convex_isa.Program.body c1.program in
  let body8 = Convex_isa.Program.body c8.program in
  [
    Test.make ~name:"compile_lfk1"
      (Staged.stage (fun () -> Fcc.Compiler.compile k1));
    Test.make ~name:"compile_lfk8"
      (Staged.stage (fun () -> Fcc.Compiler.compile k8));
    Test.make ~name:"macs_bound_lfk1"
      (Staged.stage (fun () -> Macs.Macs_bound.compute ~machine body1));
    Test.make ~name:"macs_bound_lfk8"
      (Staged.stage (fun () -> Macs.Macs_bound.compute ~machine body8));
    Test.make ~name:"simulate_lfk1"
      (Staged.stage (fun () -> Convex_vpsim.Sim.run_exn ~machine c1.job));
    Test.make ~name:"simulate_lfk8"
      (Staged.stage (fun () -> Convex_vpsim.Sim.run_exn ~machine c8.job));
    Test.make ~name:"hierarchy_lfk1"
      (Staged.stage (fun () -> Macs.Hierarchy.of_compiled c1));
    Test.make ~name:"advise_lfk1"
      (Staged.stage (fun () -> Macs.Advisor.advise ~machine k1));
    Test.make ~name:"layout_lfk2"
      (Staged.stage (fun () -> Macs.Hierarchy.layout_of c2));
  ]

let run_benchmarks () =
  let tests =
    Test.make_grouped ~name:"macs" ~fmt:"%s/%s"
      [
        Test.make_grouped ~name:"artifacts" ~fmt:"%s/%s" (artifact_tests ());
        Test.make_grouped ~name:"stages" ~fmt:"%s/%s" (stage_tests ());
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  print_endline "Bechamel timings (per run):";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.2f ns" ns
      in
      Printf.printf "  %-40s %s\n" name pretty)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Executor scaling pass: suite / fuzz / chaos at --jobs 1 vs --jobs N *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let run_suite jobs =
  match Convex_harness.Supervisor.run ~jobs () with
  | Ok _ -> ()
  | Error e -> failwith ("bench suite: " ^ e)

let run_fuzz jobs =
  let cfg = { Convex_fuzz.Driver.default_config with count = 16; jobs } in
  ignore (Convex_fuzz.Driver.run cfg)

let run_chaos jobs =
  let cfg = { Convex_chaos.Campaign.default_config with cells = 8; jobs } in
  match Convex_chaos.Campaign.run cfg with
  | Ok _ -> ()
  | Error e -> failwith ("bench chaos: " ^ e)

let run_exec_bench () =
  let n = max 2 (Domain.recommended_domain_count ()) in
  let tasks =
    [ ("suite", run_suite); ("fuzz", run_fuzz); ("chaos", run_chaos) ]
  in
  Printf.printf "\nExecutor scaling (--jobs 1 vs --jobs %d):\n" n;
  List.concat_map
    (fun (name, f) ->
      let t1 = wall (fun () -> f 1) in
      let tn = wall (fun () -> f n) in
      Printf.printf "  %-8s jobs=1 %7.3f s   jobs=%d %7.3f s   speedup %.2fx\n"
        name t1 n tn (t1 /. tn);
      [ (name, 1, t1); (name, n, tn) ])
    tasks

(* ------------------------------------------------------------------ *)
(* Result-cache pass: cold (populate) vs warm (all hits) wall clock    *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let run_suite_cached cache =
  match Convex_harness.Supervisor.run ~cache () with
  | Ok _ -> ()
  | Error e -> failwith ("bench suite/cache: " ^ e)

let run_fuzz_cached cache =
  let cfg =
    { Convex_fuzz.Driver.default_config with count = 16; cache = Some cache }
  in
  ignore (Convex_fuzz.Driver.run cfg)

let run_chaos_cached cache =
  let cfg =
    { Convex_chaos.Campaign.default_config with cells = 8; cache = Some cache }
  in
  match Convex_chaos.Campaign.run cfg with
  | Ok _ -> ()
  | Error e -> failwith ("bench chaos/cache: " ^ e)

let run_cache_bench () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "macs-bench-cache.%d" (Unix.getpid ()))
  in
  let tasks =
    [
      ("suite", run_suite_cached);
      ("fuzz", run_fuzz_cached);
      ("chaos", run_chaos_cached);
    ]
  in
  Printf.printf "\nResult cache (cold populate vs warm re-run):\n";
  let rows =
    List.concat_map
      (fun (name, f) ->
        let dir = Filename.concat root name in
        let cold = wall (fun () -> f dir) in
        let warm = wall (fun () -> f dir) in
        Printf.printf
          "  %-8s cold %7.3f s   warm %7.3f s   speedup %.2fx\n" name cold
          warm (cold /. warm);
        [ (name, "cold", cold); (name, "warm", warm) ])
      tasks
  in
  rm_rf root;
  rows

(* ------------------------------------------------------------------ *)
(* Tiered-fidelity pass: cycle vs tiered simulation, per LFK kernel    *)
(* ------------------------------------------------------------------ *)

(* Wall clock per simulation: one warm-up run, then repeat until the
   quota elapses.  Coarse but stable enough for an order-of-magnitude
   regression gate — the two fidelities are timed back to back on the
   same compiled kernel, so systematic noise mostly cancels in the
   ratio. *)
let time_per_run f =
  f ();
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.2 do
    f ();
    incr n
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !n

(* A bank-conflict-heavy synthetic kernel: stride 32 folds every access
   onto one bank, so each element waits out the previous one's bank busy
   time.  The fast path does not refuse it: [Memory.admit_stream]
   resolves those bank drains in closed form, so tiered leaps this
   stream much as it leaps the Livermore loops.  The row measures the
   tiered speedup on a single-bank conflict stream; it is reported
   separately (excluded from the geomean) because it is not a Livermore
   kernel. *)
let adversarial_job =
  let v = Convex_isa.Reg.v in
  let m array offset stride : Convex_isa.Instr.mem =
    { array; offset; stride }
  in
  Convex_vpsim.Job.make ~name:"bank-storm"
    ~body:
      [
        Convex_isa.Instr.Vld { dst = v 0; src = m "A" 0 32 };
        Convex_isa.Instr.Vbin
          { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
        Convex_isa.Instr.Vst { src = v 2; dst = m "B" 0 32 };
      ]
    ~segments:[ Convex_vpsim.Job.segment 1024 ]
    ()

let perf_floor_path = "bench/perf_floor.json"

(* the committed floor: the CI perf gate fails when the tiered geomean
   speedup over the Livermore suite drops below it *)
let read_perf_floor () =
  let open Convex_serve.Json in
  if not (Sys.file_exists perf_floor_path) then None
  else
    let text = In_channel.with_open_bin perf_floor_path In_channel.input_all in
    match parse text with
    | Ok j -> Option.bind (mem j "tiered_geomean_floor") num
    | Error _ -> None

(* the fast path's coverage over one tiered run of [f] *)
let coverage_of f =
  Convex_vpsim.Fastpath.reset_coverage ();
  f ();
  Convex_vpsim.Fastpath.coverage ()

let pp_coverage (c : Convex_vpsim.Fastpath.coverage) =
  let instr = c.leapt + c.stepped
  and elems = c.leapt_elements + c.stepped_elements in
  let refused =
    List.filter_map
      (fun (r, n) ->
        if n = 0 then None
        else
          Some
            (Printf.sprintf "%s %d" (Convex_vpsim.Fastpath.refusal_name r) n))
      c.refused
  in
  Printf.sprintf "leapt %d/%d instr, %.1f%% of elements; refused: %s" c.leapt
    instr
    (100.0 *. float_of_int c.leapt_elements /. float_of_int (max 1 elems))
    (if refused = [] then "none" else String.concat ", " refused)

(* Items shaped like macs_serve's simulate items, on machines like the
   ones the serve benchmark sends (banks, vl and pipe counts varied).
   Reported per row with the coverage counters; excluded from the
   geomean, as bank-storm is. *)
let served_items =
  [
    (7, Fcc.Opt_level.v61, "c240;banks=8;pipes.ld=2");
    (1, Fcc.Opt_level.v61, "c240;banks=128;vl=200;pipes.ld=3;pipes.add=2");
    (8, Fcc.Opt_level.packed, "c240;banks=16;vl=96;pipes.mul=3");
    ( 3,
      Fcc.Opt_level.loads_first,
      "c240;banks=64;vl=256;pipes.ld=2;pipes.add=3;pipes.mul=2" );
  ]

let run_vpsim_bench () =
  let time_sim ?machine ?fidelity ~layout job =
    time_per_run (fun () ->
        ignore (Convex_vpsim.Sim.run_exn ?machine ?layout ?fidelity job))
  in
  let row ?machine ?(label = fun name -> name) name ~layout job =
    (* the reference stepper against the default (tiered) one *)
    let cycle_s =
      time_sim ?machine ~fidelity:Convex_vpsim.Fastpath.Cycle ~layout job
    in
    let tiered_s = time_sim ?machine ~layout job in
    let speedup = cycle_s /. tiered_s in
    Printf.printf "  %-14s cycle %8.3f ms   tiered %8.3f ms   speedup %6.2fx\n%!"
      name (cycle_s *. 1e3) (tiered_s *. 1e3) speedup;
    (label name, cycle_s, tiered_s, speedup)
  in
  Printf.printf "\nTiered fidelity (cycle vs tiered simulation):\n";
  let kernel_rows =
    List.map
      (fun (k : Lfk.Kernel.t) ->
        let c = Fcc.Compiler.compile k in
        row k.name ~layout:(Some (Macs.Hierarchy.layout_of c))
          c.Fcc.Compiler.job)
      Lfk.Kernels.all
  in
  let adversarial_row = row "bank-storm" ~layout:None adversarial_job in
  let geomean =
    exp
      (List.fold_left (fun a (_, _, _, s) -> a +. log s) 0.0 kernel_rows
      /. float_of_int (List.length kernel_rows))
  in
  Printf.printf "  %-14s geomean speedup %.2fx (adversarial excluded)\n"
    "livermore" geomean;
  Printf.printf "\nServed mix (excluded from the geomean):\n";
  let served_rows =
    List.map
      (fun (id, opt, spec) ->
        let k = Lfk.Kernels.find id in
        let machine = Result.get_ok (Convex_dsl.Machine_dsl.parse spec) in
        let c = Fcc.Compiler.compile ~opt k in
        let layout = Some (Macs.Hierarchy.layout_of c) in
        let job = c.Fcc.Compiler.job in
        let ((_, cycle_s, tiered_s, _) as r) =
          row ~machine
            ~label:(fun name -> name ^ " " ^ spec)
            (Printf.sprintf "%s/%s" k.name (Fcc.Opt_level.name opt))
            ~layout job
        in
        let cycles =
          (Convex_vpsim.Sim.run_exn ~machine ?layout job).stats.cycles
        in
        let cov =
          coverage_of (fun () ->
              ignore (Convex_vpsim.Sim.run_exn ~machine ?layout job))
        in
        Printf.printf "    %s\n    ns per simulated cycle: cycle %.2f   tiered %.2f\n"
          spec (cycle_s *. 1e9 /. cycles) (tiered_s *. 1e9 /. cycles);
        Printf.printf "    %s\n%!" (pp_coverage cov);
        r)
      served_items
  in
  (* t_p exactly as Hierarchy measures it, over the Livermore suite on
     the C-240: the tiered stepper's cost per leapt vector instruction *)
  let tp_jobs =
    List.map
      (fun k ->
        let c = Fcc.Compiler.compile k in
        (Macs.Hierarchy.layout_of c, c))
      Lfk.Kernels.all
  in
  let tp_pass () =
    List.iter
      (fun (layout, (c : Fcc.Compiler.t)) ->
        ignore
          (Convex_vpsim.Measure.run_exn ~layout
             ~flops_per_iteration:c.flops_per_iteration c.job))
      tp_jobs
  in
  let tp_s = time_per_run tp_pass in
  let cov = coverage_of tp_pass in
  Printf.printf
    "\nHierarchy t_p, c240, Livermore suite: %.1f us per pass, %.2f us per \
     leapt vector instruction\n  %s\n%!"
    (tp_s *. 1e6)
    (tp_s *. 1e6 /. float_of_int (max 1 cov.leapt))
    (pp_coverage cov);
  (kernel_rows @ [ adversarial_row ] @ served_rows, geomean)

let write_vpsim_json path ~rows ~geomean ~floor =
  let oc = open_out path in
  let json_row (name, cycle_s, tiered_s, speedup) =
    Printf.sprintf
      "    { \"kernel\": %S, \"cycle_s\": %.6f, \"tiered_s\": %.6f, \
       \"speedup\": %.3f }"
      name cycle_s tiered_s speedup
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"macs-bench-vpsim/1\",\n\
    \  \"geomean_speedup\": %.3f,\n\
    \  \"floor\": %s,\n\
    \  \"kernels\": [\n%s\n  ]\n\
     }\n"
    geomean
    (match floor with Some f -> Printf.sprintf "%.3f" f | None -> "null")
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Printf.printf "wrote %s\n" path

let run_vpsim_pass () =
  let rows, geomean = run_vpsim_bench () in
  let floor = read_perf_floor () in
  write_vpsim_json "BENCH_vpsim.json" ~rows ~geomean ~floor;
  match floor with
  | None ->
      Printf.printf "no %s: perf gate skipped\n" perf_floor_path
  | Some f when geomean < f ->
      Printf.printf
        "PERF REGRESSION: tiered geomean %.2fx below committed floor %.2fx\n"
        geomean f;
      exit 1
  | Some f ->
      Printf.printf "perf gate: geomean %.2fx >= floor %.2fx\n" geomean f

let write_bench_json path ~stage_rows ~exec_rows ~cache_rows =
  let oc = open_out path in
  let json_row (name, jobs, s) =
    Printf.sprintf "    { \"task\": %S, \"jobs\": %d, \"wall_s\": %.6f }" name
      jobs s
  in
  let json_stage (name, ns) =
    Printf.sprintf "    { \"name\": %S, \"ns_per_run\": %.3f }" name ns
  in
  let json_cache (name, phase, s) =
    Printf.sprintf "    { \"task\": %S, \"phase\": %S, \"wall_s\": %.6f }"
      name phase s
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"macs-bench-exec/2\",\n\
    \  \"exec\": [\n%s\n  ],\n\
    \  \"cache\": [\n%s\n  ],\n\
    \  \"stages\": [\n%s\n  ]\n\
     }\n"
    (String.concat ",\n" (List.map json_row exec_rows))
    (String.concat ",\n" (List.map json_cache cache_rows))
    (String.concat ",\n" (List.map json_stage stage_rows));
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let bench_only = Array.exists (fun a -> a = "--bench-only") Sys.argv in
  let print_only = Array.exists (fun a -> a = "--print-only") Sys.argv in
  let vpsim_only = Array.exists (fun a -> a = "--vpsim-only") Sys.argv in
  if vpsim_only then run_vpsim_pass ()
  else begin
    if not bench_only then regenerate ();
    if not print_only then begin
      let stage_rows = run_benchmarks () in
      let exec_rows = run_exec_bench () in
      let cache_rows = run_cache_bench () in
      write_bench_json "BENCH_exec.json" ~stage_rows ~exec_rows ~cache_rows;
      run_vpsim_pass ()
    end
  end
