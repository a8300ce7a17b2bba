(* Tests for convex_vpsim: job plumbing, the cycle-level simulator against
   the paper's published timings, calibration fits, the functional
   interpreter, and the measurement wrapper. *)

open Convex_isa
open Convex_machine
open Convex_vpsim

let v = Reg.v
let s = Reg.s
let mem array offset stride : Instr.mem = { array; offset; stride }
let no_refresh = Machine.no_refresh Machine.c240

let fig2_chained =
  [
    Instr.Vld { dst = v 0; src = mem "A" 0 1 };
    Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
    Instr.Vbin { op = Mul; dst = v 5; src1 = Vr (v 2); src2 = Vr (v 3) };
  ]

let run ?(machine = no_refresh) ?trace body n =
  Sim.run_exn ~machine ?trace (Job.make ~name:"t" ~body ~segments:[ Job.segment n ] ())

(* ---- Job ---- *)

let test_job_basics () =
  let j =
    Job.make ~name:"j" ~body:fig2_chained
      ~segments:[ Job.segment 100; Job.segment ~base:5 300 ] ()
  in
  Alcotest.(check int) "elements" 400 (Job.total_elements j);
  Alcotest.(check int) "strips" (1 + 3) (Job.strip_count j ~max_vl:128);
  Alcotest.(check (list string)) "arrays" [ "A" ] (Job.arrays j)

let test_job_guards () =
  Alcotest.check_raises "empty body" (Invalid_argument "Job.make: empty body")
    (fun () ->
      ignore (Job.make ~name:"x" ~body:[] ~segments:[ Job.segment 1 ] ()));
  Alcotest.check_raises "no segments"
    (Invalid_argument "Job.make: no segments") (fun () ->
      ignore (Job.make ~name:"x" ~body:fig2_chained ~segments:[] ()));
  Alcotest.check_raises "bad segment"
    (Invalid_argument "Job.make: nonpositive segment") (fun () ->
      ignore
        (Job.make ~name:"x" ~body:fig2_chained ~segments:[ Job.segment 0 ] ()))

let test_job_of_program () =
  let p = Program.make ~name:"p" fig2_chained in
  let j = Job.of_program p ~n:256 in
  Alcotest.(check int) "elements" 256 (Job.total_elements j);
  Alcotest.(check string) "name" "p" j.Job.name

(* ---- Sim: the paper's Figure 2 timings, cycle-exact ---- *)

let test_fig2_chained_162 () =
  let r = run fig2_chained 128 in
  Alcotest.(check (float 0.001)) "162 cycles" 162.0 r.Sim.stats.cycles

let test_fig2_steady_chime_132 () =
  let r1 = run fig2_chained 128 and r2 = run fig2_chained 256 in
  Alcotest.(check (float 0.001)) "second chime 132" 132.0
    (r2.Sim.stats.cycles -. r1.Sim.stats.cycles)

let test_fig2_narrative_times () =
  (* the section 3.3 walk-through: ld result at 12, add at 22, mul first
     result at 34, completions 140/150/162 *)
  let r = run ~trace:true fig2_chained 128 in
  match r.Sim.events with
  | [ ld; add; mul ] ->
      Alcotest.(check (float 0.001)) "ld start" 2.0 ld.Sim.start;
      Alcotest.(check (float 0.001)) "ld first result" 12.0 ld.first_result;
      Alcotest.(check (float 0.001)) "ld done" 140.0 ld.completion;
      Alcotest.(check (float 0.001)) "add chains at 12" 12.0 add.start;
      Alcotest.(check (float 0.001)) "add done" 150.0 add.completion;
      Alcotest.(check (float 0.001)) "mul chains at 22" 22.0 mul.start;
      Alcotest.(check (float 0.001)) "mul first result 34" 34.0
        mul.first_result;
      Alcotest.(check (float 0.001)) "mul done 162" 162.0 mul.completion
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs)

let test_single_instruction_eq5 () =
  (* an isolated instruction takes X + Y + Z*VL cycles (eq. 5) *)
  List.iter
    (fun (cls, expected) ->
      let r =
        run [ Calibrate.representative cls ] 128
      in
      Alcotest.(check (float 0.001)) (Instr.show_vclass cls) expected
        r.Sim.stats.cycles)
    [
      (Instr.Cld, 140.0);
      (Instr.Cst, 140.0);
      (Instr.Cadd, 140.0);
      (Instr.Cmul, 142.0);
      (Instr.Cdiv, float_of_int (2 + 72) +. (4.0 *. 127.0) +. 1.0);
      (Instr.Csqrt, float_of_int (2 + 72) +. (4.0 *. 127.0) +. 1.0);
    ]

let test_independent_pipes_concurrent () =
  (* three independent instructions on three pipes overlap almost fully *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 1); src2 = Vr (v 1) };
      Instr.Vbin { op = Mul; dst = v 5; src1 = Vr (v 3); src2 = Vr (v 3) };
    ]
  in
  let r = run body 128 in
  Alcotest.(check (float 0.001)) "146 cycles" 146.0 r.Sim.stats.cycles

let test_same_pipe_serializes () =
  (* two loads share the load/store pipe: the second tailgates, adding
     VL + B cycles *)
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
    ]
  in
  let r = run body 128 in
  (* the second load enters the pipe VL + B cycles after the first:
     completion = 2 + (129 + 1 + B_ld) + 127 + 10 + 1 = 270 *)
  Alcotest.(check (float 0.001)) "tailgate spacing VL + B" 270.0
    r.Sim.stats.cycles

let test_strip_mining () =
  let r = run fig2_chained 300 in
  Alcotest.(check int) "3 strips" 3 r.Sim.stats.strips;
  Alcotest.(check int) "elements" 300 r.Sim.stats.elements

let test_refresh_slows_memory () =
  let body = [ Instr.Vld { dst = v 0; src = mem "A" 0 1 } ] in
  let with_r = Sim.run_exn (Job.make ~name:"r" ~body ~segments:[ Job.segment 2048 ] ()) in
  let without =
    Sim.run_exn ~machine:no_refresh
      (Job.make ~name:"nr" ~body ~segments:[ Job.segment 2048 ] ())
  in
  Alcotest.(check bool) "refresh costs cycles" true
    (with_r.Sim.stats.cycles > without.Sim.stats.cycles);
  Alcotest.(check bool) "about 2%" true
    (with_r.Sim.stats.cycles /. without.Sim.stats.cycles < 1.035)

let test_scalar_memory_contends () =
  (* a scalar load in the shadow of a vector load stream steals a port
     cycle; the stream must take at least one extra cycle *)
  let body_with =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Sld { dst = s 0; src = mem "C" 0 0 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
    ]
  in
  let body_without =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
    ]
  in
  let w = run body_with 1024 and wo = run body_without 1024 in
  Alcotest.(check bool) "scalar load costs port cycles" true
    (w.Sim.stats.cycles > wo.Sim.stats.cycles)

let test_memory_raw_dependence () =
  (* segment 2 loads what segment 1 stored: the load must wait for the
     store to complete *)
  let store_seg = Job.segment ~shifts:[ ("A", 0) ] 128 in
  let load_seg = Job.segment ~shifts:[ ("A", 0) ] 128 in
  let body_store = [ Instr.Vst { src = v 0; dst = mem "A" 0 1 } ] in
  ignore load_seg;
  let j1 =
    Job.make ~name:"dep" ~body:body_store ~segments:[ store_seg ] ()
  in
  let r1 = Sim.run_exn ~machine:no_refresh j1 in
  (* now a job whose body stores then reloads the same range in the next
     segment *)
  let body =
    [
      Instr.Vld { dst = v 1; src = mem "A" 0 1 };
      Instr.Vst { src = v 1; dst = mem "A" 0 1 };
    ]
  in
  let j2 =
    Job.make ~name:"dep2" ~body ~segments:[ Job.segment 128; Job.segment 128 ] ()
  in
  let r2 = Sim.run_exn ~machine:no_refresh j2 in
  (* without the dependence the second segment's load could overlap the
     first segment's store stream almost entirely; with it, the load waits
     for completion.  Lower bound: store completes after its last element
     plus Y. *)
  Alcotest.(check bool) "dependence enforced" true
    (r2.Sim.stats.cycles -. r1.Sim.stats.cycles > 2.0 *. 128.0);
  ignore r1

let test_vsum_interlocks_scalar () =
  (* Sbin reading the Vsum result stalls until the reduction drains *)
  let body =
    [
      Instr.Vsum { dst = s 6; src = v 0 };
      Instr.Sbin { op = Add; dst = s 7; src1 = s 7; src2 = s 6 };
    ]
  in
  let r = run body 128 in
  (* vsum completes at X + Z*(VL-1) + Y + 1 = 2 + 171.45 + 11 *)
  Alcotest.(check bool) "scalar waited" true (r.Sim.stats.cycles > 180.0)

let test_dual_lsu_speeds_up_loads () =
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "A" 0 1 };
      Instr.Vld { dst = v 1; src = mem "B" 0 1 };
      Instr.Vld { dst = v 2; src = mem "C" 0 1 };
      Instr.Vld { dst = v 3; src = mem "A" 512 1 };
    ]
  in
  (* NOTE: with one port, a second LSU cannot help; this exercises the
     pipe-count plumbing rather than promising speedup.  Four loads on one
     port take >= 4*VL cycles either way. *)
  let base = run body (128 * 4) in
  let dual =
    Sim.run_exn
      ~machine:(Machine.dual_load_store no_refresh)
      (Job.make ~name:"d" ~body ~segments:[ Job.segment (128 * 4) ] ())
  in
  Alcotest.(check bool) "port still limits" true
    (dual.Sim.stats.cycles >= 0.95 *. (4.0 *. 512.0));
  Alcotest.(check bool) "not slower" true
    (dual.Sim.stats.cycles <= base.Sim.stats.cycles +. 1.0)

(* ---- Calibrate ---- *)

let test_calibration_fits_recover_table1 () =
  List.iter
    (fun (f : Calibrate.fit) ->
      let p = Timing.get Machine.c240.timing f.vclass in
      Alcotest.(check (float 0.05))
        (Instr.show_vclass f.vclass ^ " X+Y")
        (float_of_int (p.Timing.x + p.y))
        f.startup;
      Alcotest.(check (float 0.01)) (Instr.show_vclass f.vclass ^ " Z") p.z
        f.z;
      Alcotest.(check (float 0.05))
        (Instr.show_vclass f.vclass ^ " B")
        (float_of_int p.b) f.b)
    (Calibrate.fit_all ())

let test_chime_calibration () =
  (* LFK1 chime 2 (ld+mul+add) in steady state: VL + 4 bubbles, plus the
     ~2% refresh on a saturated memory stream *)
  let chime =
    [
      Instr.Vld { dst = v 2; src = mem "ZX" 11 1 };
      Instr.Vbin { op = Mul; dst = v 0; src1 = Vr (v 2); src2 = Sr (s 3) };
      Instr.Vbin { op = Add; dst = v 3; src1 = Vr (v 1); src2 = Vr (v 0) };
    ]
  in
  let c = Calibrate.chime_cycles chime in
  Alcotest.(check bool)
    (Printf.sprintf "132 <= %.2f <= 135" c)
    true
    (c >= 132.0 && c <= 135.0)

let test_calibrate_guards () =
  Alcotest.check_raises "vl range"
    (Invalid_argument "Calibrate.single_run_cycles: vl out of range")
    (fun () -> ignore (Calibrate.single_run_cycles Instr.Cld ~vl:0));
  Alcotest.check_raises "empty chime"
    (Invalid_argument "Calibrate.chime_cycles: empty chime") (fun () ->
      ignore (Calibrate.chime_cycles []))

(* ---- Interp ---- *)

let test_interp_triad () =
  let store = Store.of_sizes [ ("A", 256); ("B", 256); ("C", 256) ] in
  Array.iteri (fun i _ -> (Store.get store "B").(i) <- float_of_int i)
    (Store.get store "B");
  Array.iteri (fun i _ -> (Store.get store "C").(i) <- 2.0) (Store.get store "C");
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "B" 0 1 };
      Instr.Vld { dst = v 1; src = mem "C" 0 1 };
      Instr.Vbin { op = Mul; dst = v 2; src1 = Vr (v 1); src2 = Sr (s 0) };
      Instr.Vbin { op = Add; dst = v 3; src1 = Vr (v 0); src2 = Vr (v 2) };
      Instr.Vst { src = v 3; dst = mem "A" 0 1 };
    ]
  in
  let j = Job.make ~name:"triad" ~body ~segments:[ Job.segment 200 ] () in
  let _ = Interp.run_exn ~sregs:[ (0, 3.0) ] ~store j in
  let a = Store.get store "A" in
  for i = 0 to 199 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "a[%d]" i)
      (float_of_int i +. 6.0)
      a.(i)
  done;
  (* elements beyond n untouched *)
  Alcotest.(check (float 1e-12)) "a[200]" 0.0 a.(200)

let test_interp_vsum_scalar_chain () =
  let store = Store.of_sizes [ ("B", 256) ] in
  Array.fill (Store.get store "B") 0 256 1.0;
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "B" 0 1 };
      Instr.Vsum { dst = s 6; src = v 0 };
      Instr.Sbin { op = Add; dst = s 7; src1 = s 7; src2 = s 6 };
    ]
  in
  let j = Job.make ~name:"sum" ~body ~segments:[ Job.segment 200 ] () in
  let sregs = Interp.run_exn ~store j in
  (* two strips of 128 and 72 ones accumulate to 200 *)
  Alcotest.(check (float 1e-9)) "sum 200" 200.0 sregs.(7)

let test_interp_bounds_check () =
  let store = Store.of_sizes [ ("B", 10) ] in
  let body = [ Instr.Vld { dst = v 0; src = mem "B" 0 1 } ] in
  let j = Job.make ~name:"oob" ~body ~segments:[ Job.segment 20 ] () in
  (match Interp.run ~store j with
  | Ok _ -> Alcotest.fail "expected out-of-bounds error"
  | Error (Macs_util.Macs_error.Interp_fault _) -> ()
  | Error e ->
      Alcotest.failf "expected Interp_fault, got %s"
        (Macs_util.Macs_error.to_string e))

let test_interp_neg_div () =
  let store = Store.of_sizes [ ("B", 130); ("A", 130) ] in
  Array.fill (Store.get store "B") 0 130 4.0;
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "B" 0 1 };
      Instr.Vneg { dst = v 1; src = v 0 };
      Instr.Vbin { op = Div; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
      Instr.Vst { src = v 2; dst = mem "A" 0 1 };
    ]
  in
  let j = Job.make ~name:"nd" ~body ~segments:[ Job.segment 64 ] () in
  ignore (Interp.run_exn ~store j);
  Alcotest.(check (float 1e-12)) "4 / -4" (-1.0) (Store.get store "A").(5)

let test_interp_segment_shifts () =
  let store = Store.of_sizes [ ("B", 64); ("A", 64) ] in
  let b = Store.get store "B" in
  Array.iteri (fun i _ -> b.(i) <- float_of_int i) b;
  let body =
    [
      Instr.Vld { dst = v 0; src = mem "B" 0 1 };
      Instr.Vst { src = v 0; dst = mem "A" 0 1 };
    ]
  in
  let j =
    Job.make ~name:"shift" ~body
      ~segments:[ Job.segment ~shifts:[ ("B", 10) ] 4 ] ()
  in
  ignore (Interp.run_exn ~store j);
  Alcotest.(check (float 1e-12)) "shifted read" 10.0 (Store.get store "A").(0)

(* ---- Store ---- *)

let test_store_alias_shares () =
  let arr = Array.make 4 0.0 in
  let store = Store.create [ ("A", arr); ("A2", arr) ] in
  (Store.get store "A").(0) <- 42.0;
  Alcotest.(check (float 1e-12)) "alias sees write" 42.0
    (Store.get store "A2").(0)

let test_store_copy_detaches () =
  let store = Store.of_sizes [ ("A", 4) ] in
  let copy = Store.copy store in
  (Store.get store "A").(0) <- 1.0;
  Alcotest.(check (float 1e-12)) "copy unchanged" 0.0 (Store.get copy "A").(0)

let test_store_duplicate () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Store.create: duplicate array A") (fun () ->
      ignore (Store.create [ ("A", [| 1.0 |]); ("A", [| 2.0 |]) ]))

(* ---- Measure ---- *)

let test_measure () =
  let j = Job.make ~name:"m" ~body:fig2_chained ~segments:[ Job.segment 128 ] () in
  let m = Measure.run_exn ~machine:no_refresh ~flops_per_iteration:2 j in
  Alcotest.(check (float 0.001)) "cpl" (162.0 /. 128.0) m.Measure.cpl;
  Alcotest.(check (float 0.001)) "cpf" (162.0 /. 128.0 /. 2.0) m.Measure.cpf;
  Alcotest.(check (float 0.01)) "mflops" (25.0 /. m.Measure.cpf)
    m.Measure.mflops

let test_measure_guard () =
  let j = Job.make ~name:"m" ~body:fig2_chained ~segments:[ Job.segment 8 ] () in
  Alcotest.check_raises "flops"
    (Invalid_argument "Measure.run: nonpositive flops_per_iteration")
    (fun () -> ignore (Measure.run_exn ~flops_per_iteration:0 j))

(* ---- tiered fidelity: bit-identical to the cycle stepper ---- *)

let plan spec =
  match Convex_fault.Fault.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

let bits = Int64.bits_of_float

(* Run [job] at both fidelities with full observability (trace + access
   log) and demand bitwise agreement on every channel: final cycle count,
   the whole stats record, every trace event, and the raw access stream.
   Errors must agree too — a plan that stalls one fidelity out must stall
   the other out identically. *)
let check_equiv ?machine ?layout ?(faults = Convex_fault.Fault.none) ?guard
    ?watchdog name job =
  let go fidelity =
    let log = ref [] in
    let r =
      Sim.run ?machine ?layout ~faults ?guard ?watchdog ~access_log:log
        ~trace:true ~fidelity job
    in
    (r, List.rev !log)
  in
  let rc, logc = go Fastpath.Cycle in
  let rt, logt = go Fastpath.Tiered in
  match (rc, rt) with
  | Ok c, Ok t ->
      Alcotest.(check int64)
        (name ^ ": cycle-count bits")
        (bits c.Sim.stats.cycles) (bits t.Sim.stats.cycles);
      Alcotest.(check bool) (name ^ ": stats") true (c.Sim.stats = t.Sim.stats);
      Alcotest.(check bool)
        (name ^ ": trace events")
        true
        (c.Sim.events = t.Sim.events);
      Alcotest.(check bool) (name ^ ": access log") true (logc = logt)
  | Error ec, Error et ->
      Alcotest.(check bool) (name ^ ": same error") true (ec = et)
  | Ok _, Error e ->
      Alcotest.failf "%s: tiered errored (%s) but cycle succeeded" name
        (Macs_util.Macs_error.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: cycle errored (%s) but tiered succeeded" name
        (Macs_util.Macs_error.to_string e)

(* every Livermore kernel, under the plans the fast path must either
   leap through (healthy) or provably refuse (permanent degradation,
   transient windows) — all on the refreshing machine so the closed-form
   refresh slips are exercised *)
let fidelity_plans =
  [
    ("healthy", "none");
    ("bank-degraded", "bank-degraded");
    ("ecc-scrub", "ecc-scrub");
    ("transient-banks", "degrade-bank=0*4;degrade-bank=1*4;window=200-600");
    ("transient-jitter", "jitter=12;port-spike=16/400;window=100-500");
  ]

(* every machine the production path can be asked for: the named
   presets, including the bound oracle's broken-hierarchy fixture, and
   the DSL machine the serve benchmark sends *)
let fidelity_machines =
  Machine.presets
  @ [
      ( "c240;banks=64",
        Result.get_ok (Convex_dsl.Machine_dsl.parse "c240;banks=64") );
    ]

let fidelity_opts =
  Fcc.Opt_level.[ v61; ideal; loads_first; packed ]

let test_fidelity_lfk () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.v61 k in
      let layout = Macs.Hierarchy.layout_of c in
      List.iter
        (fun (pname, spec) ->
          check_equiv ~layout ~faults:(plan spec)
            ~guard:Macs_report.Suite.faulted_guard
            (Printf.sprintf "%s/%s" k.name pname)
            c.Fcc.Compiler.job)
        fidelity_plans;
      (* the healthy plan on every machine x opt level: the P job that
         [Hierarchy] measures everywhere, its A/X processes on c240 *)
      List.iter
        (fun opt ->
          let c = Fcc.Compiler.compile ~opt k in
          let layout = Macs.Hierarchy.layout_of c in
          let job = c.Fcc.Compiler.job in
          let name m p =
            Printf.sprintf "%s/%s/%s/%s" k.name (Fcc.Opt_level.name opt) m p
          in
          List.iter
            (fun (mname, machine) ->
              check_equiv ~machine ~layout (name mname "P") job)
            fidelity_machines;
          if c.Fcc.Compiler.mode = Job.Vector then (
            check_equiv ~layout (name "c240" "A") (Macs.Ax.a_process job);
            check_equiv ~layout (name "c240" "X") (Macs.Ax.x_process job)))
        fidelity_opts)
    (Macs_report.Suite.kernels ())

(* The machines the service is actually sent: [macs_serve]'s simulate
   items vary banks, the vector length and the pipe counts (the serve
   benchmark draws banks from {8..128}, vl from 64..256 in steps of 8 and
   each of pipes.ld/add/mul from 1..3), and [Advisor.advise] measures
   three variants of every machine it is asked about.  Both run with the
   server's drain watchdog armed, which tightens a leap's slip bound. *)
let never_fires ~cycle:_ = None

let served_mix_triples =
  let rng = Random.State.make [| 24 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  List.init 60 (fun _ ->
      let k = pick Lfk.Kernels.all in
      let opt = pick fidelity_opts in
      let spec =
        Printf.sprintf "c240;banks=%d;vl=%d;pipes.ld=%d;pipes.add=%d;pipes.mul=%d"
          (pick [ 8; 16; 32; 64; 128 ])
          (64 + (8 * Random.State.int rng 25))
          (1 + Random.State.int rng 3)
          (1 + Random.State.int rng 3)
          (1 + Random.State.int rng 3)
      in
      (k, opt, spec))

let test_fidelity_served_mix () =
  List.iter
    (fun ((k : Lfk.Kernel.t), opt, spec) ->
      let machine = Result.get_ok (Convex_dsl.Machine_dsl.parse spec) in
      let c = Fcc.Compiler.compile ~opt k in
      check_equiv ~machine ~layout:(Macs.Hierarchy.layout_of c)
        ~watchdog:never_fires
        (Printf.sprintf "%s/%s/%s" k.name (Fcc.Opt_level.name opt) spec)
        c.Fcc.Compiler.job)
    served_mix_triples

let test_fidelity_advise_variants () =
  let base = Result.get_ok (Convex_dsl.Machine_dsl.parse "c240;banks=64") in
  List.iter
    (fun (vname, machine) ->
      List.iter
        (fun (k : Lfk.Kernel.t) ->
          let c = Fcc.Compiler.compile k in
          check_equiv ~machine ~layout:(Macs.Hierarchy.layout_of c)
            ~watchdog:never_fires
            (Printf.sprintf "%s/banks=64/%s" k.name vname)
            c.Fcc.Compiler.job)
        Lfk.Kernels.all)
    [
      ("no_bubbles", Machine.no_bubbles base);
      ("no_refresh", Machine.no_refresh base);
      ("dual_load_store", Machine.dual_load_store base);
    ]

let test_fidelity_remainder_strips () =
  (* LFK2 and LFK6 under short machine vector lengths: strip-mining
     leaves remainder strips of every awkward count, and the fast path's
     stream admission must stay bit-identical to the cycle stepper for
     each of them — healthy and across transient fault windows *)
  List.iter
    (fun id ->
      let k = Lfk.Kernels.find id in
      let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.v61 k in
      let layout = Macs.Hierarchy.layout_of c in
      List.iter
        (fun vl ->
          let machine =
            match
              Convex_dsl.Machine_dsl.parse (Printf.sprintf "c240;vl=%d" vl)
            with
            | Ok m -> m
            | Error e -> Alcotest.fail (Macs_util.Macs_error.to_string e)
          in
          List.iter
            (fun (pname, spec) ->
              check_equiv ~machine ~layout ~faults:(plan spec)
                ~guard:Macs_report.Suite.faulted_guard
                (Printf.sprintf "%s/vl=%d/%s" k.name vl pname)
                c.Fcc.Compiler.job)
            [
              ("healthy", "none");
              ("transient-banks",
               "degrade-bank=0*4;degrade-bank=1*4;window=200-600");
              ("transient-jitter", "jitter=12;port-spike=16/400;window=100-500");
            ])
        [ 3; 7; 36; 100 ])
    [ 2; 6 ]

let test_fidelity_window_splits_chime () =
  (* a transient window opening and closing in the middle of a single
     chime: the fast path must refuse the overlapping stream, cycle-step
     the seam, and resume leaping once quiescence is provable again *)
  List.iter
    (fun (lo, hi) ->
      check_equiv ~faults:(plan (Printf.sprintf "degrade-bank=0*4;jitter=8;window=%d-%d" lo hi))
        ~guard:Macs_report.Suite.faulted_guard
        (Printf.sprintf "fig2/window=%d-%d" lo hi)
        (Job.make ~name:"t" ~body:fig2_chained
           ~segments:[ Job.segment 320 ] ()))
    [ (60, 90); (130, 170); (0, 40); (150, 151) ]

let test_fidelity_strided_and_indexed () =
  (* bank-conflicting strides and data-dependent gathers: the fast path
     must fall back (stride 32 folds every access onto one bank) and
     still agree bit-for-bit *)
  let bodies =
    [
      ("stride32", [ Instr.Vld { dst = v 0; src = mem "A" 0 32 } ]);
      ("stride16-mix",
       [
         Instr.Vld { dst = v 0; src = mem "A" 0 16 };
         Instr.Vbin { op = Add; dst = v 2; src1 = Vr (v 0); src2 = Vr (v 1) };
         Instr.Vst { src = v 2; dst = mem "B" 0 1 };
       ]);
      ("gather",
       [
         Instr.Vld { dst = v 1; src = mem "IX" 0 1 };
         Instr.Vgather { dst = v 0; base = mem "A" 0 1; index = v 1 };
       ]);
    ]
  in
  List.iter
    (fun (name, body) ->
      check_equiv name
        (Job.make ~name ~body ~segments:[ Job.segment 300 ] ()))
    bodies

let test_fidelity_stall_out_agrees () =
  (* a dead bank stalls the run out: both fidelities must fail with the
     same typed error *)
  check_equiv ~faults:(plan "dead-bank") ~guard:2_000 "dead-bank"
    (Job.make ~name:"t" ~body:fig2_chained ~segments:[ Job.segment 128 ] ())

(* ---- qcheck: simulator sanity on random bodies ---- *)

let prop_sim_terminates_and_positive =
  QCheck.Test.make ~count:100 ~name:"random bodies simulate to finite time"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let j = Job.make ~name:"q" ~body ~segments:[ Job.segment 64 ] () in
      let r = Sim.run_exn ~machine:no_refresh j in
      Float.is_finite r.Sim.stats.cycles && r.Sim.stats.cycles >= 0.0)

let prop_sim_monotone_in_elements =
  QCheck.Test.make ~count:60 ~name:"more elements never take less time"
    Convex_fuzz.Gen.vector_body_arbitrary (fun body ->
      let run n =
        (Sim.run_exn ~machine:no_refresh
           (Job.make ~name:"q" ~body ~segments:[ Job.segment n ] ()))
          .Sim.stats.cycles
      in
      run 256 >= run 128 -. 1e-6)

let prop_sim_deterministic =
  QCheck.Test.make ~count:60 ~name:"simulation is deterministic"
    Convex_fuzz.Gen.body_arbitrary (fun body ->
      let run () =
        (Sim.run_exn (Job.make ~name:"q" ~body ~segments:[ Job.segment 200 ] ()))
          .Sim.stats.cycles
      in
      Float.equal (run ()) (run ()))

let fidelity_equiv_on ?faults ?guard body =
  let j = Job.make ~name:"q" ~body ~segments:[ Job.segment 200 ] () in
  let go fidelity =
    let log = ref [] in
    let r = Sim.run ?faults ?guard ~access_log:log ~trace:true ~fidelity j in
    (r, !log)
  in
  match (go Fastpath.Cycle, go Fastpath.Tiered) with
  | (Ok c, lc), (Ok t, lt) ->
      c.Sim.stats = t.Sim.stats && c.Sim.events = t.Sim.events && lc = lt
  | (Error a, _), (Error b, _) -> a = b
  | _ -> false

let prop_fidelity_equiv =
  QCheck.Test.make ~count:120
    ~name:"tiered fidelity is bit-identical on random bodies"
    Convex_fuzz.Gen.body_arbitrary (fun body -> fidelity_equiv_on body)

let prop_fidelity_equiv_faulted =
  let faults =
    match Convex_fault.Fault.parse "degrade-bank=2*3;jitter=6;window=150-400" with
    | Ok p -> p
    | Error e -> failwith e
  in
  QCheck.Test.make ~count:60
    ~name:"tiered fidelity is bit-identical under a transient plan"
    Convex_fuzz.Gen.vector_body_arbitrary (fun body ->
      fidelity_equiv_on ~faults ~guard:Macs_report.Suite.faulted_guard body)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sim_terminates_and_positive; prop_sim_monotone_in_elements;
      prop_sim_deterministic; prop_fidelity_equiv;
      prop_fidelity_equiv_faulted;
    ]

let () =
  Alcotest.run "convex_vpsim"
    [
      ( "job",
        [
          Alcotest.test_case "basics" `Quick test_job_basics;
          Alcotest.test_case "guards" `Quick test_job_guards;
          Alcotest.test_case "of_program" `Quick test_job_of_program;
        ] );
      ( "sim",
        [
          Alcotest.test_case "fig2 chained 162" `Quick test_fig2_chained_162;
          Alcotest.test_case "fig2 steady chime 132" `Quick
            test_fig2_steady_chime_132;
          Alcotest.test_case "fig2 narrative" `Quick test_fig2_narrative_times;
          Alcotest.test_case "eq 5 single instruction" `Quick
            test_single_instruction_eq5;
          Alcotest.test_case "independent pipes" `Quick
            test_independent_pipes_concurrent;
          Alcotest.test_case "same pipe serializes" `Quick
            test_same_pipe_serializes;
          Alcotest.test_case "strip mining" `Quick test_strip_mining;
          Alcotest.test_case "refresh cost" `Quick test_refresh_slows_memory;
          Alcotest.test_case "scalar memory contends" `Quick
            test_scalar_memory_contends;
          Alcotest.test_case "memory RAW dependence" `Quick
            test_memory_raw_dependence;
          Alcotest.test_case "vsum interlock" `Quick
            test_vsum_interlocks_scalar;
          Alcotest.test_case "dual lsu plumbing" `Quick
            test_dual_lsu_speeds_up_loads;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "all LFK kernels, all plans" `Quick
            test_fidelity_lfk;
          Alcotest.test_case "LFK2/6 remainder strips" `Quick
            test_fidelity_remainder_strips;
          Alcotest.test_case "window splits a chime" `Quick
            test_fidelity_window_splits_chime;
          Alcotest.test_case "strided + indexed fall back" `Quick
            test_fidelity_strided_and_indexed;
          Alcotest.test_case "stall-out errors agree" `Quick
            test_fidelity_stall_out_agrees;
          Alcotest.test_case "served-mix machines" `Quick
            test_fidelity_served_mix;
          Alcotest.test_case "advise's machine variants" `Quick
            test_fidelity_advise_variants;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "fits recover Table 1" `Quick
            test_calibration_fits_recover_table1;
          Alcotest.test_case "chime calibration" `Quick test_chime_calibration;
          Alcotest.test_case "guards" `Quick test_calibrate_guards;
        ] );
      ( "interp",
        [
          Alcotest.test_case "triad" `Quick test_interp_triad;
          Alcotest.test_case "vsum + scalar chain" `Quick
            test_interp_vsum_scalar_chain;
          Alcotest.test_case "bounds check" `Quick test_interp_bounds_check;
          Alcotest.test_case "neg and div" `Quick test_interp_neg_div;
          Alcotest.test_case "segment shifts" `Quick
            test_interp_segment_shifts;
        ] );
      ( "store",
        [
          Alcotest.test_case "alias shares storage" `Quick
            test_store_alias_shares;
          Alcotest.test_case "copy detaches" `Quick test_store_copy_detaches;
          Alcotest.test_case "duplicate rejected" `Quick test_store_duplicate;
        ] );
      ( "measure",
        [
          Alcotest.test_case "units" `Quick test_measure;
          Alcotest.test_case "guard" `Quick test_measure_guard;
        ] );
      ("properties", qcheck_tests);
    ]
