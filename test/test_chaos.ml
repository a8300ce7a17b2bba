(* Chaos campaign engine tests: fault-spec parse hardening, structural
   plan equality, fault-space sampling well-formedness, the bounded
   retry policy, transient-fault recovery pinning, campaign determinism
   (byte-identical journals), torn-tail repair at every byte offset of
   the final record, and delta-debugged minimal plans on a machine that
   breaks the MACS hierarchy. *)

open Convex_isa
open Convex_machine
open Convex_fault
open Convex_vpsim
module Campaign = Convex_chaos.Campaign
module Fault_space = Convex_chaos.Fault_space
module Slo = Convex_chaos.Slo

let machine = Machine.c240
let guard = Macs_report.Suite.faulted_guard

let plan spec =
  match Fault.parse spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---- parse hardening: malformed plans are rejected with typed messages ---- *)

let test_parse_rejects_malformed () =
  let rejected =
    [
      (* banks outside [0, 32) *)
      ("degrade-bank=32*2", "out of range");
      ("degrade-bank=-1*2", "");
      ("stuck-bank=40@0-", "out of range");
      ("scrub=99/100*5", "out of range");
      (* nonpositive periods and durations *)
      ("scrub=3/0*5", "");
      ("scrub=3/100*0", "");
      ("port-spike=0/100", "");
      ("port-spike=100/0", "");
      (* slowdown factors below 1 cannot model a fault *)
      ("slow-pipe=mul*0", "");
      ("slow-pipe=mul*0.5", "not >= 1");
      ("slow-pipe=mul*-2", "");
      (* degenerate or negative transient windows *)
      ("window=50-20", "empty window");
      ("window=10-10", "empty window");
      ("window=10-", "explicit close");
      ("jitter=-1", "");
      ("seed=-5", "");
    ]
  in
  List.iter
    (fun (spec, fragment) ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" spec
      | Error e ->
          if fragment <> "" && not (contains ~needle:fragment e) then
            Alcotest.failf "spec %S: error %S lacks %S" spec e fragment)
    rejected

let test_presets_validate () =
  List.iter
    (fun (name, _desc, p) ->
      match Fault.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "preset %s fails validate: %s" name e)
    Fault.presets

(* A spec generator that strays outside the legal grid on purpose: the
   property is that whatever [parse] accepts, [validate] also accepts —
   no malformed plan slips through the front door. *)
let wild_spec_gen =
  let open QCheck.Gen in
  let clause =
    oneof
      [
        map (Printf.sprintf "seed=%d") (int_range 0 9999);
        map2
          (Printf.sprintf "degrade-bank=%d*%d")
          (int_range (-4) 40) (int_range 0 8);
        map2 (Printf.sprintf "stuck-bank=%d@%d-") (int_range (-4) 40)
          (int_range 0 500);
        ( int_range (-4) 40 >>= fun b ->
          int_range 0 400 >>= fun p ->
          int_range 0 80 >|= fun d -> Printf.sprintf "scrub=%d/%d*%d" b p d );
        map (Printf.sprintf "jitter=%d") (int_range (-4) 24);
        ( oneofl [ "add"; "mul"; "load/store"; "lsu"; "bogus" ] >>= fun p ->
          float_range 0.0 4.0 >|= fun f ->
          Printf.sprintf "slow-pipe=%s*%.4g" p f );
        map2
          (Printf.sprintf "port-spike=%d/%d")
          (int_range 0 60) (int_range 0 400);
        map2 (Printf.sprintf "window=%d-%d") (int_range (-4) 400)
          (int_range (-4) 400);
      ]
  in
  list_size (int_range 0 5) clause >|= String.concat ";"

let prop_parsed_plans_wellformed =
  QCheck.Test.make ~count:1000 ~name:"every parsed plan validates"
    (QCheck.make ~print:Fun.id wild_spec_gen)
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> true
      | Ok p -> (
          match Fault.validate p with
          | Ok () -> true
          | Error e ->
              QCheck.Test.fail_reportf "parse accepted %S but validate: %s"
                spec e))

(* ---- sampled fault space: well-formed, grid-aligned plans ---- *)

let plan_of_seed n =
  let rand = Random.State.make [| n; 0x5EED |] in
  Fault_space.sample rand ~index:(n mod 64)

let plan_arb =
  QCheck.make ~print:(fun n -> Fault.to_spec (plan_of_seed n))
    QCheck.Gen.(int_bound 1_000_000)

let prop_sampled_plans_wellformed =
  QCheck.Test.make ~count:500 ~name:"sampled plans validate and round-trip"
    plan_arb
    (fun n ->
      let p = plan_of_seed n in
      match Fault.validate p with
      | Error e ->
          QCheck.Test.fail_reportf "sampled plan %S invalid: %s"
            (Fault.to_spec p) e
      | Ok () -> (
          match Fault.parse (Fault.to_spec p) with
          | Error e ->
              QCheck.Test.fail_reportf "sampled spec %S rejected: %s"
                (Fault.to_spec p) e
          | Ok q ->
              (* the journal stores specs: the round trip must be exact *)
              Fault.equal_behaviour p q
              && Fault.to_spec q = Fault.to_spec p))

(* ---- structural plan equality (satellite: no polymorphic compare) ---- *)

let prop_equal_behaviour_reflexive =
  QCheck.Test.make ~count:500 ~name:"equal_behaviour is reflexive" plan_arb
    (fun n ->
      let p = plan_of_seed n in
      Fault.equal_behaviour p p
      && Fault.equal_behaviour p { p with Fault.name = "renamed" })

let prop_equal_behaviour_symmetric =
  QCheck.Test.make ~count:500 ~name:"equal_behaviour is symmetric"
    QCheck.(pair plan_arb plan_arb)
    (fun (m, n) ->
      let p = plan_of_seed m and q = plan_of_seed n in
      Fault.equal_behaviour p q = Fault.equal_behaviour q p)

let test_equal_behaviour_discriminates () =
  Alcotest.(check bool) "none <> jitter" false
    (Fault.equal_behaviour Fault.none (plan "jitter=1"));
  let windowed = plan "degrade-bank=0*2;window=0-100" in
  Alcotest.(check bool) "window matters" false
    (Fault.equal_behaviour windowed { windowed with Fault.window = None })

(* ---- bounded retry policy (satellite) ---- *)

let test_retry_bounded_by_guard_scales () =
  (* an error that is always retryable exhausts exactly one attempt per
     guard scale, never more *)
  let attempts = ref 0 in
  let result =
    Retry.with_relaxed_guard (fun ~guard_scale:_ ->
        incr attempts;
        Error (Macs_util.Macs_error.livelock ~site:"test" ~cycle:0 ~pending:1 ()))
  in
  Alcotest.(check int) "one attempt per guard scale"
    (List.length Retry.guard_scales)
    !attempts;
  match result with
  | Error e ->
      Alcotest.(check string) "last error surfaced" "livelock"
        (Macs_util.Macs_error.kind e)
  | Ok () -> Alcotest.fail "always-failing thunk must not succeed"

let test_retry_stops_at_first_success () =
  Alcotest.(check bool) "policy has a retry to spend" true
    (List.length Retry.guard_scales >= 2);
  let attempts = ref 0 in
  let result =
    Retry.with_relaxed_guard (fun ~guard_scale:_ ->
        incr attempts;
        if !attempts = 1 then
          Error
            (Macs_util.Macs_error.stall_out ~site:"test" ~cycle:0 ~pending:1
               ~plan:"dead-bank")
        else Ok !attempts)
  in
  Alcotest.(check int) "stopped after the first success" 2 !attempts;
  match result with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "expected the second attempt's value"

(* ---- transient-fault recovery (tentpole acceptance pin) ---- *)

let probe n =
  Job.make ~name:"chaos-test-probe"
    ~body:
      [
        Instr.Vld
          { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } };
      ]
    ~segments:[ Job.segment n ] ()

let probe_cycles ?faults n =
  match Sim.run ~machine ?faults ~guard (probe n) with
  | Ok r -> r.Sim.stats.Sim.cycles
  | Error e ->
      Alcotest.failf "probe of %d elements failed: %s" n
        (Macs_util.Macs_error.to_string e)

let test_transient_recovers_to_healthy_tail () =
  (* bank 0 dead, but only during cycles [0, 256): the probe must pay a
     bounded price and then run its tail at the healthy rate *)
  let tplan = plan "stuck-bank=0@0-;window=0-256" in
  let o n = probe_cycles ~faults:tplan n -. probe_cycles n in
  let o_short = o 2048 and o_long = o 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "fault costs cycles (overhead %.0f)" o_short)
    true (o_short > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "overhead bounded by the window (%.0f)" o_short)
    true
    (o_short <= 256.0 +. 1024.0);
  (* recovery: doubling the tail must not grow the overhead *)
  let slack = (Slo.probe_tol *. probe_cycles 4096) +. 64.0 in
  Alcotest.(check bool)
    (Printf.sprintf "overhead converges: %.0f then %.0f (slack %.0f)" o_short
       o_long slack)
    true
    (o_long <= o_short +. slack)

let test_window_after_completion_is_free () =
  (* a window that never opens during the run changes nothing, down to
     the exact cycle count *)
  let ghost = plan "stuck-bank=0@0-;window=100000-200000" in
  Alcotest.(check (float 0.0))
    "ghost window costs zero cycles" (probe_cycles 256)
    (probe_cycles ~faults:ghost 256)

let test_recovery_slo_converges () =
  (* the campaign's own transient-recovery SLO agrees: an honestly
     windowed fault is not flagged *)
  let tplan = plan "stuck-bank=0@0-;window=0-256" in
  (match Slo.recovery_check ~machine ~guard tplan with
  | None -> ()
  | Some (Slo.Violation { check; detail }) ->
      Alcotest.failf "honest transient flagged by %s: %s" check detail
  | Some _ -> Alcotest.fail "honest transient degraded");
  match Slo.recovery_check ~machine ~guard (plan "jitter=4") with
  | None -> ()
  | Some _ -> Alcotest.fail "windowless plan has no recovery SLO"

(* ---- campaign determinism and journal resume ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let run_ok cfg =
  match Campaign.run cfg with
  | Ok t -> t
  | Error e -> Alcotest.failf "campaign failed: %s" e

let with_tmp f =
  let path = Filename.temp_file "chaos-test" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_campaign_journal_byte_identical () =
  with_tmp @@ fun j1 ->
  with_tmp @@ fun j2 ->
  let cfg j =
    { Campaign.default_config with seed = 11; cells = 6; journal = Some j }
  in
  let t1 = run_ok (cfg j1) in
  let (_ : Campaign.t) = run_ok (cfg j2) in
  Alcotest.(check int) "all cells executed" 6 t1.Campaign.executed;
  Alcotest.(check int) "nothing resumed" 0 t1.Campaign.resumed;
  Alcotest.(check string) "same seed, byte-identical journal" (read_file j1)
    (read_file j2);
  let summary = Campaign.render t1 in
  Alcotest.(check bool) "render carries the campaign header" true
    (contains ~needle:"seed 11, 6 cells" summary);
  (* resuming a complete journal replays every cell and runs none *)
  let before = read_file j1 in
  let t3 = run_ok { (cfg j1) with Campaign.resume = true } in
  Alcotest.(check int) "all cells replayed" 6 t3.Campaign.resumed;
  Alcotest.(check int) "none executed" 0 t3.Campaign.executed;
  Alcotest.(check string) "replay leaves the journal untouched" before
    (read_file j1)

let test_campaign_resume_survives_torn_tail () =
  (* kill-during-write, exhaustively: truncate the journal at every byte
     offset of its final record; resume must repair the tear, replay the
     complete cells, run exactly the torn one, and converge on the very
     bytes an uninterrupted campaign wrote *)
  with_tmp @@ fun j ->
  let cfg =
    { Campaign.default_config with seed = 5; cells = 3; journal = Some j }
  in
  let (_ : Campaign.t) = run_ok cfg in
  let full = read_file j in
  let n = String.length full in
  Alcotest.(check bool) "journal ends with a newline" true (full.[n - 1] = '\n');
  let last_start =
    match String.rindex_from_opt full (n - 2) '\n' with
    | Some i -> i + 1
    | None -> Alcotest.fail "journal has a single line"
  in
  for cut = last_start to n - 1 do
    write_file j (String.sub full 0 cut);
    let t = run_ok { cfg with Campaign.resume = true } in
    Alcotest.(check int)
      (Printf.sprintf "cut at %d: completed cells replayed" cut)
      2 t.Campaign.resumed;
    Alcotest.(check int)
      (Printf.sprintf "cut at %d: only the torn cell re-runs" cut)
      1 t.Campaign.executed;
    Alcotest.(check string)
      (Printf.sprintf "cut at %d: journal restored byte-for-byte" cut)
      full (read_file j)
  done

let test_campaign_refuses_config_mismatch () =
  with_tmp @@ fun j ->
  let cfg =
    { Campaign.default_config with seed = 5; cells = 2; journal = Some j }
  in
  let (_ : Campaign.t) = run_ok cfg in
  match Campaign.run { cfg with Campaign.seed = 6; resume = true } with
  | Error e ->
      Alcotest.(check bool) "mismatch is explained" true
        (contains ~needle:"different campaign configuration" e)
  | Ok _ -> Alcotest.fail "resume under a different seed must refuse"

let test_campaign_resume_checks_the_machine_run () =
  (* the journal names the machine the cells actually ran on: an ideal
     machine campaign journals "ideal", and resuming it as the default
     c240 campaign must refuse instead of splicing ideal-machine verdicts
     into a c240 campaign *)
  with_tmp @@ fun j ->
  let cfg =
    { Campaign.default_config with
      machine = Machine.ideal; seed = 5; cells = 2; journal = Some j }
  in
  let t = run_ok cfg in
  Alcotest.(check bool) "journal names the ideal machine" true
    (contains ~needle:"\tmachine=ideal\t" (read_file j));
  Alcotest.(check bool) "render names the ideal machine" true
    (contains ~needle:"cells on ideal" (Campaign.render t));
  match
    Campaign.run { cfg with Campaign.machine = Machine.c240; resume = true }
  with
  | Error e ->
      Alcotest.(check bool) "mismatch is explained" true
        (contains ~needle:"different campaign configuration" e)
  | Ok _ -> Alcotest.fail "resume on c240 replayed an ideal-machine journal"

(* ---- parallel execution: jobs parity, quarantine, shard recovery ---- *)

let test_campaign_parallel_byte_identical () =
  with_tmp @@ fun j1 ->
  with_tmp @@ fun j4 ->
  let cfg j jobs =
    { Campaign.default_config with seed = 11; cells = 8; journal = Some j;
      jobs }
  in
  let t1 = run_ok (cfg j1 1) in
  let t4 = run_ok (cfg j4 4) in
  Alcotest.(check string) "jobs=4 journal byte-identical to jobs=1"
    (read_file j1) (read_file j4);
  Alcotest.(check string) "renders identical" (Campaign.render t1)
    (Campaign.render t4);
  Alcotest.(check (list (pair int string))) "no shards left behind" []
    (Macs_util.Journal.shards ~path:j4)

let test_campaign_kill_cell_quarantined () =
  with_tmp @@ fun j ->
  let cfg =
    { Campaign.default_config with seed = 7; cells = 6; journal = Some j;
      jobs = 3; kill_cells = [ 2 ] }
  in
  let t = run_ok cfg in
  Alcotest.(check bool) "not clean" false (Campaign.clean t);
  Alcotest.(check int) "five cells completed" 5
    (List.length t.Campaign.results);
  (match t.Campaign.quarantined with
  | [ p ] ->
      Alcotest.(check int) "the killed cell" 2 p.Convex_exec.Executor.index;
      Alcotest.(check bool) "kill is named" true
        (contains ~needle:"injected kill" p.Convex_exec.Executor.error)
  | ps -> Alcotest.failf "expected one poison, got %d" (List.length ps));
  Alcotest.(check bool) "poison journaled" true
    (contains ~needle:"\npoison\t" (read_file j));
  Alcotest.(check bool) "render reports the quarantine" true
    (contains ~needle:"QUARANTINED" (Campaign.render t));
  (* resume replays the poison record instead of re-running the cell *)
  let t2 =
    run_ok { cfg with Campaign.resume = true; kill_cells = [] }
  in
  Alcotest.(check int) "all six replayed" 6 t2.Campaign.resumed;
  Alcotest.(check int) "none executed" 0 t2.Campaign.executed;
  Alcotest.(check int) "quarantine survives the resume" 1
    (List.length t2.Campaign.quarantined)

let test_campaign_shard_resume_loses_nothing () =
  (* manufacture the wreckage of a parallel campaign killed mid-run: the
     main journal holds one completed cell, a shard holds two more, and
     the rest never ran.  Resume must merge the shard, replay all three,
     run only the missing cells, and converge on the uninterrupted
     sequential bytes. *)
  with_tmp @@ fun j ->
  let cfg =
    { Campaign.default_config with seed = 3; cells = 6; journal = Some j }
  in
  let (_ : Campaign.t) = run_ok cfg in
  let full = read_file j in
  let records =
    match Macs_util.Journal.recover ~path:j ~format:Campaign.format with
    | Ok (Macs_util.Journal.Intact rs) -> rs
    | Ok _ -> Alcotest.fail "journal not intact"
    | Error e -> Alcotest.failf "journal load: %s" e
  in
  let config, cells =
    match records with c :: rest -> (c, Array.of_list rest) | [] -> assert false
  in
  Macs_util.Journal.create ~path:j ~format:Campaign.format
    [ config; cells.(0) ];
  Macs_util.Journal.shard_start ~path:j ~shard:1 ~format:Campaign.format
    ~config;
  Macs_util.Journal.shard_append ~path:j ~shard:1 ~index:2 ~seq:0 cells.(2);
  Macs_util.Journal.shard_append ~path:j ~shard:1 ~index:1 ~seq:0 cells.(1);
  let t = run_ok { cfg with Campaign.resume = true; jobs = 4 } in
  Alcotest.(check int) "main + shard cells replayed" 3 t.Campaign.resumed;
  Alcotest.(check int) "only missing cells run" 3 t.Campaign.executed;
  Alcotest.(check string) "journal converges on the sequential bytes" full
    (read_file j);
  Alcotest.(check (list (pair int string))) "shards consumed" []
    (Macs_util.Journal.shards ~path:j)

(* ---- violations and delta-debugged minimal plans ---- *)

let test_broken_hierarchy_minimal_plans () =
  let broken =
    match Machine.of_name "broken-hierarchy" with
    | Ok m -> m
    | Error e -> Alcotest.failf "broken-hierarchy preset: %s" e
  in
  let cfg =
    {
      Campaign.default_config with
      machine = broken;
      seed = 42;
      cells = 2;
    }
  in
  let t1 = run_ok cfg in
  let viols = Campaign.violations t1 in
  Alcotest.(check bool) "broken hierarchy violates" true (viols <> []);
  Alcotest.(check bool) "campaign is not clean" false (Campaign.clean t1);
  List.iter
    (fun (r : Campaign.cell_result) ->
      match r.Campaign.minimized with
      | None -> Alcotest.fail "violation without a minimal plan"
      | Some spec -> (
          match Fault.parse spec with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "minimal plan %S does not re-parse: %s" spec e))
    viols;
  (* the shrink is deterministic: a second run lands on the same minima *)
  let t2 = run_ok cfg in
  let minima t =
    List.map (fun (r : Campaign.cell_result) -> r.Campaign.minimized)
      (Campaign.violations t)
  in
  Alcotest.(check (list (option string)))
    "same seed, same minimal plans" (minima t1) (minima t2);
  let summary = Campaign.render t1 in
  Alcotest.(check bool) "render shows the minimal plan" true
    (contains ~needle:"minimal plan" summary)

let test_healthy_campaign_is_clean () =
  let cfg = { Campaign.default_config with seed = 42; cells = 4 } in
  let t = run_ok cfg in
  Alcotest.(check bool) "healthy c240 survives its fault plans" true
    (Campaign.clean t)

(* ---- runner ---- *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "chaos"
    [
      ( "parse-hardening",
        [
          Alcotest.test_case "malformed specs rejected" `Quick
            test_parse_rejects_malformed;
          Alcotest.test_case "presets validate" `Quick test_presets_validate;
        ]
        @ qsuite [ prop_parsed_plans_wellformed ] );
      ( "plan-equality",
        Alcotest.test_case "discriminates" `Quick
          test_equal_behaviour_discriminates
        :: qsuite
             [ prop_equal_behaviour_reflexive; prop_equal_behaviour_symmetric ]
      );
      ("fault-space", qsuite [ prop_sampled_plans_wellformed ]);
      ( "retry",
        [
          Alcotest.test_case "bounded by guard_scales" `Quick
            test_retry_bounded_by_guard_scales;
          Alcotest.test_case "stops at first success" `Quick
            test_retry_stops_at_first_success;
        ] );
      ( "transient-recovery",
        [
          Alcotest.test_case "recovers to healthy tail" `Slow
            test_transient_recovers_to_healthy_tail;
          Alcotest.test_case "ghost window is free" `Quick
            test_window_after_completion_is_free;
          Alcotest.test_case "recovery SLO converges" `Slow
            test_recovery_slo_converges;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "byte-identical journal" `Slow
            test_campaign_journal_byte_identical;
          Alcotest.test_case "torn-tail resume, every offset" `Slow
            test_campaign_resume_survives_torn_tail;
          Alcotest.test_case "config mismatch refused" `Slow
            test_campaign_refuses_config_mismatch;
          Alcotest.test_case "resume checks the machine that ran" `Slow
            test_campaign_resume_checks_the_machine_run;
          Alcotest.test_case "parallel journal byte-identical" `Slow
            test_campaign_parallel_byte_identical;
          Alcotest.test_case "kill-cell quarantined and resumable" `Slow
            test_campaign_kill_cell_quarantined;
          Alcotest.test_case "shard resume loses nothing" `Slow
            test_campaign_shard_resume_loses_nothing;
          Alcotest.test_case "minimal plans on broken hierarchy" `Slow
            test_broken_hierarchy_minimal_plans;
          Alcotest.test_case "healthy campaign clean" `Slow
            test_healthy_campaign_is_clean;
        ] );
    ]
