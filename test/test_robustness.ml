(* Robustness and edge-case tests: fuzzing the assembly parser, scheduler
   properties over random kernels, interpreter strip-size invariance,
   simulator corner cases, fault injection and the structured error
   channel, the register-eviction path in the compiler, and the Hockney
   fit. *)

open Convex_isa
open Convex_machine
open Convex_fault
open Convex_vpsim

let machine = Machine.c240

let plan spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

(* ---- parser fuzzing ---- *)

let prop_parse_never_raises =
  QCheck.Test.make ~count:1000 ~name:"parse_instr never raises"
    QCheck.(string_gen_of_size Gen.(int_range 0 60) Gen.printable)
    (fun text ->
      match Asm.parse_instr text with Ok _ | Error _ -> true)

let prop_parse_program_never_raises =
  QCheck.Test.make ~count:500 ~name:"parse_program never raises"
    QCheck.(string_gen_of_size Gen.(int_range 0 200) Gen.printable)
    (fun text ->
      match Asm.parse_program text with Ok _ | Error _ -> true)

let prop_parse_mutated_listing =
  (* corrupt one byte of a valid listing: parser must not raise *)
  QCheck.Test.make ~count:300 ~name:"mutated listings do not crash"
    QCheck.(pair (int_bound 10_000) (int_bound 255))
    (fun (pos, byte) ->
      let listing =
        Fcc.Compiler.listing (Fcc.Compiler.compile (Lfk.Kernels.find 1))
      in
      let b = Bytes.of_string listing in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      match Asm.parse_program (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

(* ---- scheduler properties over random kernels ---- *)

let prop_pack_permutation_random =
  QCheck.Test.make ~count:200 ~name:"pack is a permutation (random kernels)"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let body =
        Program.body (Fcc.Compiler.compile k).Fcc.Compiler.program
      in
      let packed = Fcc.Schedule.pack_exn ~machine body in
      List.sort compare (List.map Instr.show body)
      = List.sort compare (List.map Instr.show packed))

let prop_pack_never_more_chimes =
  QCheck.Test.make ~count:200 ~name:"pack never adds chimes (random kernels)"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let body =
        Program.body (Fcc.Compiler.compile k).Fcc.Compiler.program
      in
      let packed = Fcc.Schedule.pack_exn ~machine body in
      Fcc.Schedule.chime_count ~machine packed
      <= Fcc.Schedule.chime_count ~machine body)

let prop_packed_functional_random =
  QCheck.Test.make ~count:150
    ~name:"packed compilation is functionally equivalent (random kernels)"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let plain = Fcc.Compiler.run_interp (Fcc.Compiler.compile k) in
      let packed =
        Fcc.Compiler.run_interp
          (Fcc.Compiler.compile ~opt:Fcc.Opt_level.packed k)
      in
      let a = Store.get plain "OUT" and b = Store.get packed "OUT" in
      Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-12) a b)

(* ---- interpreter strip-size invariance ---- *)

let prop_interp_strip_invariant =
  QCheck.Test.make ~count:150
    ~name:"interpreter results independent of strip size"
    QCheck.(pair Convex_fuzz.Gen.kernel_arbitrary (QCheck.make Gen.(int_range 1 128)))
    (fun (k, strip) ->
      let c = Fcc.Compiler.compile k in
      let run max_vl =
        let store = Fcc.Compiler.initial_store c in
        let (_ : float array) =
          Interp.run_exn ~max_vl ~sregs:c.Fcc.Compiler.sregs ~store
            c.Fcc.Compiler.job
        in
        Store.get store "OUT"
      in
      let full = run 128 and small = run strip in
      Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-12) full small)

let test_interp_strip_invariance_reductions () =
  (* reductions re-associate across strips: results agree to float noise *)
  let k = Lfk.Kernels.find 3 in
  let c = Fcc.Compiler.compile k in
  let run max_vl =
    let store = Fcc.Compiler.initial_store c in
    let (_ : float array) =
      Interp.run_exn ~max_vl ~sregs:c.sregs ~store c.job
    in
    (Store.get store "Q").(0)
  in
  let a = run 128 and b = run 37 in
  Alcotest.(check bool) "tolerance" true
    (Float.abs (a -. b) <= 1e-9 *. Float.abs a)

(* ---- simulator corner cases ---- *)

let single_ld n =
  Job.make ~name:"edge"
    ~body:[ Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } } ]
    ~segments:[ Job.segment n ]
    ()

let test_sim_single_element () =
  let r = Sim.run_exn ~machine:(Machine.no_refresh machine) (single_ld 1) in
  (* X + Y + Z*1: enter at 2, complete at 2 + 10 + 1 *)
  Alcotest.(check (float 0.001)) "13 cycles" 13.0 r.Sim.stats.cycles;
  Alcotest.(check int) "one element" 1 r.Sim.stats.elements

let test_sim_129_elements_two_strips () =
  let r = Sim.run_exn ~machine:(Machine.no_refresh machine) (single_ld 129) in
  Alcotest.(check int) "two strips" 2 r.Sim.stats.strips;
  (* second strip is a single element tailgating the first *)
  Alcotest.(check bool) "barely above one strip" true
    (r.Sim.stats.cycles < 160.0)

let test_sim_huge_stride () =
  let body =
    [ Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1024 } } ]
  in
  let job = Job.make ~name:"wide" ~body ~segments:[ Job.segment 64 ] () in
  let layout = Convex_memsys.Layout.build [ ("A", 70_000) ] in
  let r = Sim.run_exn ~machine:(Machine.no_refresh machine) ~layout job in
  (* stride 1024 = same bank every time: one access per 8 cycles *)
  Alcotest.(check bool) "throttled to bank rate" true
    (r.Sim.stats.cycles >= 8.0 *. 63.0)

let test_sim_negative_offset () =
  let body =
    [ Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = -4; stride = 1 } } ]
  in
  let job =
    Job.make ~name:"neg" ~body ~segments:[ Job.segment ~base:10 32 ] ()
  in
  let r = Sim.run_exn ~machine:(Machine.no_refresh machine) job in
  Alcotest.(check bool) "runs" true (Float.is_finite r.Sim.stats.cycles)

let test_sim_ideal_machine_faster () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let base = Sim.run_exn c.job in
  let ideal = Sim.run_exn ~machine:Machine.ideal c.job in
  Alcotest.(check bool) "ideal faster" true
    (ideal.Sim.stats.cycles < base.Sim.stats.cycles)

let test_sim_empty_trace_by_default () =
  let r = Sim.run_exn (single_ld 8) in
  Alcotest.(check int) "no events" 0 (List.length r.Sim.events)

let test_sim_prologue_epilogue_timing () =
  (* segment prologue/epilogue instructions are part of the run *)
  let seg =
    Job.segment
      ~prologue:[ Instr.Sop { name = "outer" }; Instr.Sop { name = "outer" } ]
      ~epilogue:[ Instr.Sop { name = "outer" } ]
      64
  in
  let body = [ Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } } ] in
  let with_pe = Job.make ~name:"pe" ~body ~segments:[ seg ] () in
  let without = Job.make ~name:"np" ~body ~segments:[ Job.segment 64 ] () in
  let m = Machine.no_refresh machine in
  let a = Sim.run_exn ~machine:m with_pe and b = Sim.run_exn ~machine:m without in
  Alcotest.(check bool) "prologue costs cycles" true
    (a.Sim.stats.cycles >= b.Sim.stats.cycles)

(* ---- fault injection and the structured error channel ---- *)

(* (a) plans are pure data: the same plan gives the same faulted run *)
let prop_fault_deterministic =
  QCheck.Test.make ~count:60 ~name:"faulted runs are deterministic"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let p = plan "seed=41;degrade-bank=0*3;jitter=9;port-spike=16/300" in
      let run () =
        match
          Sim.run ~faults:p
            (Job.make ~name:"f" ~body ~segments:[ Job.segment 200 ] ())
        with
        | Ok r -> r.Sim.stats.cycles
        | Error _ -> Float.nan
      in
      let a = run () and b = run () in
      Float.equal a b || (Float.is_nan a && Float.is_nan b))

(* (b) a single-load streaming job is provably monotone under bank faults:
   its accesses issue in order down one pipe, so delaying any access can
   only push the rest later.  (Multi-instruction kernels are NOT monotone
   in general — delaying one stream can let another through earlier.) *)
let prop_fault_never_faster_streaming =
  QCheck.Test.make ~count:60
    ~name:"faulted single-load streams never run faster"
    QCheck.(pair (QCheck.make Gen.(int_range 1 32)) (QCheck.make Gen.(int_range 64 512)))
    (fun (stride, n) ->
      let body =
        [ Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride } } ]
      in
      let job = Job.make ~name:"mono" ~body ~segments:[ Job.segment n ] () in
      let layout = Convex_memsys.Layout.build [ ("A", 70_000) ] in
      let healthy = Sim.run_exn ~layout job in
      let faulted =
        Sim.run_exn ~layout
          ~faults:(plan "degrade-bank=0*4;degrade-bank=1*4;jitter=8")
          job
      in
      faulted.Sim.stats.cycles >= healthy.Sim.stats.cycles -. 1e-6)

(* (c) no fault plan makes the simulator raise: failure is a value *)
let prop_fault_no_raise =
  QCheck.Test.make ~count:60 ~name:"fault plans never make Sim.run raise"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let job = Job.make ~name:"nr" ~body ~segments:[ Job.segment 150 ] () in
      List.for_all
        (fun spec ->
          match Sim.run ~faults:(plan spec) ~guard:20_000 job with
          | Ok _ | Error _ -> true)
        [ "stuck-bank=0@0-"; "bank-degraded"; "brownout"; "scrub=0/41*40" ])

let prop_fault_cosim_no_raise =
  QCheck.Test.make ~count:20 ~name:"fault plans never make Cosim.run raise"
    QCheck.(QCheck.make Gen.(int_range 8 64))
    (fun n ->
      let wl = (single_ld n, "edge") in
      match
        Cosim.run ~faults:(plan "stuck-bank=0@0-") [ wl; wl ]
      with
      | Ok _ | Error _ -> true)

let test_fault_dead_bank_stalls_out () =
  (* a bank that never recovers turns the guard into a structured
     stall-out carrying the plan name, not a crash *)
  let dead = plan "stuck-bank=0@0-" in
  match Sim.run ~faults:dead ~guard:20_000 (single_ld 64) with
  | Ok _ -> Alcotest.fail "dead bank should stall the stream out"
  | Error e -> (
      Alcotest.(check string) "kind" "stall-out" (Macs_util.Macs_error.kind e);
      Alcotest.(check string) "site" "Sim.run" (Macs_util.Macs_error.site e);
      match e with
      | Macs_util.Macs_error.Stall_out { plan = p; _ } ->
          Alcotest.(check string) "plan recorded" dead.Fault.name p
      | _ -> Alcotest.fail "expected Stall_out")

let test_fault_healthy_guard_is_livelock () =
  (* the same guard on a healthy machine reports Livelock, so a genuine
     simulator bug is never blamed on a fault plan.  The stream must be
     long enough to cross a refresh window, the first rejection a healthy
     unit-stride load ever sees. *)
  match Sim.run ~guard:0 (single_ld 2048) with
  | Ok _ -> Alcotest.fail "guard 0 must trip"
  | Error e ->
      Alcotest.(check string) "kind" "livelock" (Macs_util.Macs_error.kind e)

let test_fault_degraded_slows_lfk1 () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let healthy = Sim.run_exn c.job in
  let faulted = Sim.run_exn ~faults:(plan "bank-degraded") c.job in
  Alcotest.(check bool) "slower" true
    (faulted.Sim.stats.cycles > healthy.Sim.stats.cycles);
  Alcotest.(check bool) "fault stalls counted" true
    (faulted.Sim.stats.fault_stalls = 0);
  (* degraded banks stretch busy time (conflict stalls), they don't
     block: stuck/scrub plans are what feed fault_stalls *)
  let scrubbed = Sim.run_exn ~faults:(plan "ecc-scrub") c.job in
  Alcotest.(check bool) "scrub stalls counted" true
    (scrubbed.Sim.stats.fault_stalls > 0)

let test_fault_slow_pipe () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let healthy = Sim.run_exn c.job in
  let slow = Sim.run_exn ~faults:(plan "slow-multiply") c.job in
  Alcotest.(check bool) "slower multiply pipe costs cycles" true
    (slow.Sim.stats.cycles > healthy.Sim.stats.cycles)

let test_fault_parse_presets () =
  List.iter
    (fun (name, _desc, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "preset %s parses to itself" name)
        true
        (match Fault.parse name with
        | Ok q -> q = { p with Fault.name = q.Fault.name }
        | Error _ -> false))
    Fault.presets

let test_fault_parse_clauses () =
  let p = plan "seed=7;degrade-bank=3*2;stuck-bank=1@100-200;jitter=5" in
  Alcotest.(check int) "seed" 7 p.Fault.seed;
  Alcotest.(check int)
    "degraded extra busy" 8
    (Fault.bank_extra_busy p ~bank:3 ~cycle:0);
  Alcotest.(check bool) "stuck inside window" true
    (Fault.bank_blocked p ~bank:1 ~cycle:150);
  Alcotest.(check bool) "stuck outside window" false
    (Fault.bank_blocked p ~bank:1 ~cycle:250);
  Alcotest.(check bool) "bad spec rejected" true
    (match Fault.parse "degrade-bank=nope" with
    | Error _ -> true
    | Ok _ -> false)

let test_suite_degrades_gracefully () =
  (* acceptance: a deliberately livelocked configuration produces a
     structured diagnostic row and the rest of the suite completes *)
  let s = Macs_report.Suite.run ~faults:(plan "dead-bank") () in
  Alcotest.(check int) "all twelve rows present" 12 (List.length s.rows);
  let failed = Macs_report.Suite.failed_rows s in
  Alcotest.(check bool) "vector kernels stall out" true
    (List.length failed > 0);
  List.iter
    (fun ((_ : Macs_report.Suite.row), e) ->
      Alcotest.(check string) "stall-out rows" "stall-out"
        (Macs_util.Macs_error.kind e))
    failed;
  let text = Macs_report.Suite.render s in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions diagnostics" true
    (contains ~needle:"diagnostics" text)

(* ---- fault-plan clause syntax round-trip ---- *)

let fault_spec_gen =
  let open QCheck.Gen in
  let clause =
    oneof
      [
        map (Printf.sprintf "seed=%d") (int_range 0 9999);
        map2
          (Printf.sprintf "degrade-bank=%d*%d")
          (int_range 0 31) (int_range 1 8);
        map2 (Printf.sprintf "stuck-bank=%d@%d-") (int_range 0 31)
          (int_range 0 5000);
        ( int_range 0 31 >>= fun b ->
          int_range 0 5000 >>= fun lo ->
          int_range 1 5000 >|= fun len ->
          Printf.sprintf "stuck-bank=%d@%d-%d" b lo (lo + len) );
        ( int_range 0 31 >>= fun b ->
          int_range 100 1000 >>= fun p ->
          int_range 1 50 >|= fun d -> Printf.sprintf "scrub=%d/%d*%d" b p d );
        map (Printf.sprintf "jitter=%d") (int_range 0 24);
        ( oneofl [ "add"; "mul"; "multiply"; "load/store"; "lsu" ]
        >>= fun pipe ->
          float_range 1.0 4.0 >|= fun f ->
          Printf.sprintf "slow-pipe=%s*%.12g" pipe f );
        ( int_range 1 50 >>= fun d ->
          int_range 100 1000 >|= fun p ->
          Printf.sprintf "port-spike=%d/%d" d p );
      ]
  in
  list_size (int_range 0 6) clause >|= String.concat ";"

let prop_fault_spec_roundtrip =
  (* satellite: parse -> to_spec -> parse is the identity on behaviour,
     so journaled plans re-parse to exactly the plan that ran *)
  QCheck.Test.make ~count:500 ~name:"fault spec parse/print round-trip"
    (QCheck.make ~print:Fun.id fault_spec_gen)
    (fun spec ->
      match Fault.parse spec with
      | Error e -> QCheck.Test.fail_reportf "generated spec rejected: %s" e
      | Ok p -> (
          match Fault.parse (Fault.to_spec p) with
          | Error e ->
              QCheck.Test.fail_reportf "printed spec %S rejected: %s"
                (Fault.to_spec p) e
          | Ok q -> Fault.equal_behaviour p q))

let test_fault_presets_roundtrip () =
  List.iter
    (fun (name, _desc, p) ->
      match Fault.parse (Fault.to_spec p) with
      | Ok q ->
          Alcotest.(check bool)
            (Printf.sprintf "preset %s survives to_spec/parse" name)
            true (Fault.equal_behaviour p q)
      | Error e -> Alcotest.failf "preset %s: printed spec rejected: %s" name e)
    Fault.presets

(* ---- bounded retry policy ---- *)

let test_retry_dead_bank_exactly_one_retry () =
  (* a genuine stall-out fails every guard scale: the policy attempts once
     per entry of guard_scales (one retry) and surfaces the final error *)
  let dead = plan "dead-bank" in
  let attempts = ref [] in
  let result =
    Retry.with_relaxed_guard (fun ~guard_scale ->
        attempts := guard_scale :: !attempts;
        Result.map (fun _ -> ()) (Sim.run ~faults:dead ~guard:(5_000 * guard_scale) (single_ld 64)))
  in
  Alcotest.(check (list int))
    "one attempt per guard scale" Retry.guard_scales (List.rev !attempts);
  match result with
  | Error e ->
      Alcotest.(check string) "final error surfaced" "stall-out"
        (Macs_util.Macs_error.kind e)
  | Ok () -> Alcotest.fail "dead bank must not complete"

let test_retry_budget_exceeded_not_retried () =
  (* watchdog budgets are hard caps: the retry policy must not spend a
     relaxed-guard attempt on one *)
  let attempts = ref 0 in
  let result =
    Retry.with_relaxed_guard (fun ~guard_scale:_ ->
        incr attempts;
        Error
          (Macs_util.Macs_error.budget_exceeded ~site:"test"
             ~resource:"simulated-cycles" ~budget:1.0 ~spent:2.0))
  in
  Alcotest.(check int) "single attempt" 1 !attempts;
  match result with
  | Error (Macs_util.Macs_error.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "expected the budget error back"

let test_parse_failure_is_structured () =
  match Asm.parse_program_exn "junk" with
  | exception Macs_util.Macs_error.Error (Macs_util.Macs_error.Parse_failure _)
    ->
      ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "junk parsed"

(* ---- compiler register-eviction path ---- *)

let deep_kernel =
  (* a sum of ten two-use products: every load is cached with remaining
     uses while seven more values go live, forcing cache eviction and
     rematerialising reloads *)
  let r i = { Lfk.Ir.array = "P"; scale = 1; offset = i } in
  let term i =
    Lfk.Ir.Mul (Lfk.Ir.Load (r i), Lfk.Ir.Load (r ((i + 1) mod 10)))
  in
  let rec chain i = if i = 9 then term 9 else Lfk.Ir.Add (term i, chain (i + 1)) in
  {
    Lfk.Kernel.id = 998;
    name = "deep";
    description = "register pressure";
    fortran = "";
    body = [ Lfk.Ir.Store ({ array = "OUT"; scale = 1; offset = 0 }, chain 0) ];
    acc = None;
    scalars = [];
    arrays = [ ("P", 256); ("OUT", 256) ];
    aliases = [];
    segments = [ { base = 0; length = 100; shifts = [] } ];
    outer_ops = 0;
  }

let test_eviction_reloads () =
  let c = Fcc.Compiler.compile deep_kernel in
  let loads =
    Program.count (function Instr.Vld _ -> true | _ -> false) c.program
  in
  (* ten distinct references; eviction forces at least one reload *)
  Alcotest.(check bool)
    (Printf.sprintf "loads %d > 10" loads)
    true (loads >= 10);
  (* and the result is still correct *)
  let got = Fcc.Compiler.run_interp c in
  let store = Fcc.Compiler.initial_store c in
  let p = Store.get store "P" in
  let expect = ref 0.0 in
  for i = 0 to 9 do
    expect := !expect +. (p.(i) *. p.((i + 1) mod 10))
  done;
  Alcotest.(check (float 1e-12)) "value" !expect (Store.get got "OUT").(0)

let test_register_pressure_raised_in_scalar_mode () =
  (* scalar mode has no rematerialisation; enough live temps raise *)
  let r i = { Lfk.Ir.array = "P"; scale = 1; offset = i } in
  let lets =
    List.init 9 (fun i ->
        Lfk.Ir.Let (Printf.sprintf "t%d" i, Lfk.Ir.Load (r i)))
  in
  let rec sum i =
    if i = 8 then Lfk.Ir.Temp "t8"
    else Lfk.Ir.Add (Lfk.Ir.Temp (Printf.sprintf "t%d" i), sum (i + 1))
  in
  let k =
    {
      deep_kernel with
      Lfk.Kernel.id = 997;
      body = lets @ [ Lfk.Ir.Store ({ array = "OUT"; scale = 1; offset = 0 }, sum 0) ];
    }
  in
  try
    ignore (Fcc.Compiler.compile ~force_scalar:true k);
    Alcotest.fail "expected Register_pressure"
  with Fcc.Compiler.Register_pressure _ -> ()

(* ---- Hockney fit ---- *)

let test_hockney_lfk1 () =
  let h = Macs.Hockney.measure (Lfk.Kernels.find 1) in
  Alcotest.(check bool)
    (Printf.sprintf "r_inf %.1f near MACS rate" h.r_inf_mflops)
    true
    (let macs = Macs.Hockney.macs_rate_mflops (Lfk.Kernels.find 1) in
     Float.abs (h.r_inf_mflops -. macs) /. macs < 0.10);
  Alcotest.(check bool) "n_half positive and below VL" true
    (h.n_half > 0.0 && h.n_half < 64.0);
  Alcotest.(check int) "eight samples" 8 (List.length h.samples)

let test_hockney_monotone_samples () =
  let h = Macs.Hockney.measure (Lfk.Kernels.find 7) in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "cycles grow with n" true (mono h.samples)

let test_hockney_guards () =
  Alcotest.check_raises "length range"
    (Invalid_argument "Hockney.measure: length out of [1; max VL]")
    (fun () ->
      ignore
        (Macs.Hockney.measure
           ~machine:{ Convex_machine.Machine.c240 with max_vl = 64 }
           (Lfk.Kernels.find 1)))

let test_hockney_scalar_kernels_no_startup () =
  (* scalar loops have no vector pipeline to fill: n_half near zero *)
  let h = Macs.Hockney.measure Lfk.Kernels.lfk5 in
  Alcotest.(check bool) "tiny n_half" true (Float.abs h.n_half < 2.0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_parse_never_raises; prop_parse_program_never_raises;
      prop_parse_mutated_listing; prop_pack_permutation_random;
      prop_pack_never_more_chimes; prop_packed_functional_random;
      prop_interp_strip_invariant; prop_fault_deterministic;
      prop_fault_never_faster_streaming; prop_fault_no_raise;
      prop_fault_cosim_no_raise; prop_fault_spec_roundtrip;
    ]

let () =
  Alcotest.run "robustness"
    [
      ("fuzz-and-properties", qcheck_tests);
      ( "interp",
        [
          Alcotest.test_case "reduction strip tolerance" `Quick
            test_interp_strip_invariance_reductions;
        ] );
      ( "sim-edges",
        [
          Alcotest.test_case "single element" `Quick test_sim_single_element;
          Alcotest.test_case "129 elements" `Quick
            test_sim_129_elements_two_strips;
          Alcotest.test_case "huge stride" `Quick test_sim_huge_stride;
          Alcotest.test_case "negative offset" `Quick test_sim_negative_offset;
          Alcotest.test_case "ideal machine" `Quick
            test_sim_ideal_machine_faster;
          Alcotest.test_case "trace off by default" `Quick
            test_sim_empty_trace_by_default;
          Alcotest.test_case "prologue/epilogue" `Quick
            test_sim_prologue_epilogue_timing;
        ] );
      ( "faults",
        [
          Alcotest.test_case "dead bank stalls out" `Quick
            test_fault_dead_bank_stalls_out;
          Alcotest.test_case "healthy guard is livelock" `Quick
            test_fault_healthy_guard_is_livelock;
          Alcotest.test_case "degraded banks slow lfk1" `Quick
            test_fault_degraded_slows_lfk1;
          Alcotest.test_case "slow pipe" `Quick test_fault_slow_pipe;
          Alcotest.test_case "presets parse" `Quick test_fault_parse_presets;
          Alcotest.test_case "clause grammar" `Quick test_fault_parse_clauses;
          Alcotest.test_case "suite degrades gracefully" `Quick
            test_suite_degrades_gracefully;
          Alcotest.test_case "parse failure structured" `Quick
            test_parse_failure_is_structured;
          Alcotest.test_case "presets round-trip to_spec" `Quick
            test_fault_presets_roundtrip;
          Alcotest.test_case "dead bank retried exactly once" `Quick
            test_retry_dead_bank_exactly_one_retry;
          Alcotest.test_case "budget errors not retried" `Quick
            test_retry_budget_exceeded_not_retried;
        ] );
      ( "compiler-pressure",
        [
          Alcotest.test_case "eviction reloads" `Quick test_eviction_reloads;
          Alcotest.test_case "scalar-mode pressure raises" `Quick
            test_register_pressure_raised_in_scalar_mode;
        ] );
      ( "hockney",
        [
          Alcotest.test_case "lfk1 fit" `Quick test_hockney_lfk1;
          Alcotest.test_case "monotone samples" `Quick
            test_hockney_monotone_samples;
          Alcotest.test_case "guards" `Quick test_hockney_guards;
          Alcotest.test_case "scalar kernels" `Quick
            test_hockney_scalar_kernels_no_startup;
        ] );
    ]
