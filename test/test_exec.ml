(* Tests for the fault-tolerant domain-parallel executor: deterministic
   backoff, transient retry, poison quarantine, graceful worker loss,
   sharded journals and their merge-on-resume byte identity. *)

open Macs_util
module Exec = Convex_exec.Executor

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp_journal name = Filename.temp_file ("macs_exec_" ^ name) ".journal"

(* ---- backoff ---- *)

let test_backoff_deterministic () =
  let retry = { Exec.default_retry with seed = 7 } in
  for index = 0 to 5 do
    for attempt = 1 to 4 do
      let a = Exec.backoff_delay ~retry ~index ~attempt in
      let b = Exec.backoff_delay ~retry ~index ~attempt in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "same delay for cell %d attempt %d" index attempt)
        a b
    done
  done;
  (* different cells get different jitter (with overwhelming probability) *)
  let d0 = Exec.backoff_delay ~retry ~index:0 ~attempt:1 in
  let d1 = Exec.backoff_delay ~retry ~index:1 ~attempt:1 in
  Alcotest.(check bool) "jitter varies per cell" true (d0 <> d1)

let test_backoff_bounds () =
  let retry =
    { Exec.max_attempts = 10; base_delay_s = 0.005; max_delay_s = 0.05;
      seed = 3 }
  in
  for attempt = 1 to 8 do
    let d = Exec.backoff_delay ~retry ~index:2 ~attempt in
    let floor = retry.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d at least the exponential floor" attempt)
      true
      (d >= Float.min floor retry.max_delay_s);
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d capped" attempt)
      true
      (d <= retry.max_delay_s)
  done

(* ---- retry and quarantine ---- *)

let fast_retry =
  { Exec.max_attempts = 3; base_delay_s = 1e-6; max_delay_s = 1e-5; seed = 0 }

let test_transient_retries_then_succeeds () =
  let attempts = Atomic.make 0 in
  let cell i =
    if i = 2 && Atomic.fetch_and_add attempts 1 < 2 then
      raise (Exec.Transient "flaky");
    i * 10
  in
  let results, stats = Exec.run ~retry:fast_retry ~cells:4 cell in
  Alcotest.(check int) "two retries consumed" 2 stats.Exec.retried;
  Alcotest.(check int) "nothing quarantined" 0 stats.Exec.quarantined;
  (match results.(2) with
  | Some (Exec.Done v) -> Alcotest.(check int) "third attempt's value" 20 v
  | _ -> Alcotest.fail "cell 2 must succeed after retries")

let test_transient_exhaustion_poisons () =
  let attempts = Atomic.make 0 in
  let cell i =
    if i = 1 then (
      Atomic.incr attempts;
      raise (Exec.Transient "never recovers"));
    i
  in
  let results, stats = Exec.run ~retry:fast_retry ~cells:3 cell in
  Alcotest.(check int) "all attempts consumed" 3 (Atomic.get attempts);
  Alcotest.(check int) "one cell quarantined" 1 stats.Exec.quarantined;
  match results.(1) with
  | Some (Exec.Poisoned p) ->
      Alcotest.(check int) "attempts recorded" 3 p.Exec.attempts;
      Alcotest.(check bool) "transient error surfaced" true
        (String.length p.Exec.error > 0)
  | _ -> Alcotest.fail "exhausted cell must be poisoned"

let poison_exactly_once jobs () =
  let executions = Array.init 8 (fun _ -> Atomic.make 0) in
  let cell i =
    Atomic.incr executions.(i);
    if i = 3 then failwith "lethal";
    i
  in
  let results, stats =
    Exec.run ~jobs ~retry:fast_retry ~context:(Printf.sprintf "cell %d")
      ~cells:8 cell
  in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d ran exactly once" i)
        1 (Atomic.get c))
    executions;
  Alcotest.(check int) "one quarantine" 1 stats.Exec.quarantined;
  (match results.(3) with
  | Some (Exec.Poisoned p) ->
      Alcotest.(check int) "poisoned on first attempt" 1 p.Exec.attempts;
      Alcotest.(check string) "context captured" "cell 3" p.Exec.context
  | _ -> Alcotest.fail "raising cell must be poisoned exactly once");
  Array.iteri
    (fun i r ->
      if i <> 3 then
        match r with
        | Some (Exec.Done v) -> Alcotest.(check int) "value" i v
        | _ -> Alcotest.failf "cell %d lost" i)
    results

let test_worker_killed_retires_worker () =
  let cell i =
    if i = 0 then raise (Exec.Worker_killed "injected");
    i
  in
  let results, stats = Exec.run ~jobs:2 ~cells:6 cell in
  Alcotest.(check int) "one worker lost" 1 stats.Exec.lost_workers;
  Alcotest.(check int) "one quarantine" 1 stats.Exec.quarantined;
  for i = 1 to 5 do
    match results.(i) with
    | Some (Exec.Done v) -> Alcotest.(check int) "survivor" i v
    | _ -> Alcotest.failf "cell %d lost with the worker" i
  done

let test_all_workers_killed_backstop () =
  (* kill every worker immediately: the coordinator itself must finish
     the remaining cells *)
  let kills = Atomic.make 0 in
  let cell i =
    if Atomic.fetch_and_add kills 1 < 2 then
      raise (Exec.Worker_killed "mass casualty");
    i
  in
  let results, stats = Exec.run ~jobs:2 ~cells:8 cell in
  Alcotest.(check int) "both workers lost" 2 stats.Exec.lost_workers;
  let done_ = ref 0 and poisoned = ref 0 in
  Array.iter
    (function
      | Some (Exec.Done _) -> incr done_
      | Some (Exec.Poisoned _) -> incr poisoned
      | None -> Alcotest.fail "no cell may be skipped")
    results;
  Alcotest.(check int) "two cells quarantined" 2 !poisoned;
  Alcotest.(check int) "the rest completed" 6 !done_

(* ---- poison codec ---- *)

let test_poison_record_roundtrip () =
  let p =
    { Exec.index = 4; attempts = 3; error = "odd\tbytes % and = here";
      context = "lfk7 under jitter=9" }
  in
  match Exec.poison_of_record (Exec.poison_record p) with
  | Ok p' -> Alcotest.(check bool) "identical" true (p = p')
  | Error e -> Alcotest.failf "poison did not round-trip: %s" e

(* ---- sharded journals ---- *)

let cell_record i =
  { Journal.tag = "cell";
    fields = [ ("i", Journal.put_int i); ("v", Printf.sprintf "value-%d" i) ]
  }

let config = { Journal.tag = "config"; fields = [ ("seed", "42") ] }
let format = "exec-test"

let index_of r =
  if r.Journal.tag = "cell" then Journal.get_int (List.assoc "i" r.fields)
  else None

let config_ok r =
  if r = config then Ok () else Error "config mismatch"

let journal_spec path =
  {
    Exec.path;
    format;
    config;
    config_ok;
    index_of;
    records_of = (fun i () -> [ cell_record i ]);
    of_records = (fun _ -> Ok ());
  }

let run_journaled ?jobs ?resume ?should_stop path ~cells =
  match
    Exec.run_journaled ?jobs ?resume ?should_stop ~journal:(journal_spec path)
      ~cells (fun _ -> ())
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "journaled run refused: %s" e

let test_parallel_journal_byte_identical () =
  let p1 = tmp_journal "seq" and p4 = tmp_journal "par" in
  let run path jobs = ignore (run_journaled ~jobs path ~cells:13) in
  run p1 1;
  run p4 4;
  Alcotest.(check string) "jobs=4 journal byte-identical to jobs=1"
    (read_file p1) (read_file p4);
  Alcotest.(check (list (pair int string))) "no shards left behind" []
    (Journal.shards ~path:p4);
  Sys.remove p1;
  Sys.remove p4

let test_stop_then_resume_loses_nothing () =
  (* a parallel run stopped early, then resumed: the merged journal must
     equal an uninterrupted sequential run's bytes *)
  let full = tmp_journal "stopfull" and part = tmp_journal "stoppart" in
  ignore (run_journaled full ~cells:10);
  let started = Atomic.make 0 in
  let stop () = Atomic.fetch_and_add started 1 >= 5 in
  let _, s1 = run_journaled ~jobs:3 ~should_stop:stop part ~cells:10 in
  Alcotest.(check bool) "stopped early" true s1.Exec.stopped_early;
  (* resume: the executor merges whatever landed (main or shards),
     replays it and runs the rest *)
  let _, s2 = run_journaled ~jobs:3 ~resume:true part ~cells:10 in
  Alcotest.(check (pair int int)) "the five started cells replayed, the rest run"
    (5, 5) (s2.Exec.replayed, s2.Exec.executed);
  Alcotest.(check string) "resumed journal byte-identical"
    (read_file full) (read_file part);
  Alcotest.(check (list (pair int string))) "shards consumed" []
    (Journal.shards ~path:part);
  Sys.remove full;
  Sys.remove part

let test_poison_outside_run_refused () =
  (* a poison record names its own cell; one past the end of the run is
     a journal from another run, never silently dropped *)
  let path = tmp_journal "poisonrange" in
  Journal.create ~path ~format
    [
      config;
      cell_record 0;
      Exec.poison_record
        { Exec.index = 99; attempts = 1; error = "boom"; context = "c99" };
    ];
  (match
     Exec.run_journaled ~resume:true ~journal:(journal_spec path) ~cells:4
       (fun _ -> ())
   with
  | Ok _ -> Alcotest.fail "a poison record outside the run was accepted"
  | Error e ->
      Alcotest.(check bool) "the index is named" true
        (let needle = "cell 99" in
         let n = String.length needle in
         let rec go i =
           i + n <= String.length e && (String.sub e i n = needle || go (i + 1))
         in
         go 0));
  Sys.remove path

let test_keep_rewrites_dropped_cells () =
  (* [keep] drops a replayed cell from the middle of the journal: it runs
     again, and the journal comes out as if it had never been dropped *)
  let full = tmp_journal "keepfull" and part = tmp_journal "keeppart" in
  let record i v =
    { Journal.tag = "cell"; fields = [ ("i", Journal.put_int i); ("v", v) ] }
  in
  let spec path =
    {
      (journal_spec path) with
      Exec.records_of = (fun i v -> [ record i v ]);
      of_records =
        (function
        | [ r ] -> Journal.field_err r "v" | _ -> Error "one record per cell");
    }
  in
  let run ?resume ?keep path =
    match
      Exec.run_journaled ?resume ?keep ~journal:(spec path) ~cells:5
        (Printf.sprintf "value-%d")
    with
    | Ok (_, s) -> s
    | Error e -> Alcotest.failf "journaled run refused: %s" e
  in
  ignore (run full);
  Journal.create ~path:part ~format
    (config
    :: List.init 5 (fun i -> if i = 2 then record i "stale" else cell_record i)
    );
  let s =
    run ~resume:true
      ~keep:(function Exec.Done v -> v <> "stale" | Exec.Poisoned _ -> false)
      part
  in
  Alcotest.(check (pair int int)) "four kept, one re-run" (4, 1)
    (s.Exec.replayed, s.Exec.executed);
  Alcotest.(check string) "journal canonical after the re-run"
    (read_file full) (read_file part);
  Sys.remove full;
  Sys.remove part

let test_shard_config_mismatch_refused () =
  let path = tmp_journal "shardcfg" in
  Journal.create ~path ~format [ config ];
  let bad = { Journal.tag = "config"; fields = [ ("seed", "99") ] } in
  Journal.shard_start ~path ~shard:0 ~format ~config:bad;
  Journal.shard_append ~path ~shard:0 ~index:0 ~seq:0 (cell_record 0);
  (match Journal.merge_shards ~path ~format ~config_ok ~index_of with
  | Error e ->
      Alcotest.(check bool) "shard named in refusal" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "mismatched shard config must refuse the merge");
  Journal.remove_shards ~path;
  Sys.remove path

(* any interleaving of shard writes merges back to the canonical
   sequential journal, byte for byte *)
let prop_shard_merge_canonical =
  QCheck.Test.make ~count:100
    ~name:"shard merge is canonical under any interleaving"
    QCheck.(
      pair (int_range 1 12)
        (pair (int_range 1 4) (int_range 0 1000)))
    (fun (cells, (shards, salt)) ->
      let path = tmp_journal "prop" in
      let rng = Random.State.make [| cells; shards; salt |] in
      (* canonical: what a sequential run writes *)
      let canonical = tmp_journal "canon" in
      Journal.create ~path:canonical ~format
        (config :: List.init cells cell_record);
      (* shards: assign each cell to a random shard, then write each
         shard's cells in a random order *)
      Journal.create ~path ~format [ config ];
      let assignment = Array.init cells (fun _ -> Random.State.int rng shards) in
      for s = 0 to shards - 1 do
        let mine =
          List.filter (fun i -> assignment.(i) = s) (List.init cells Fun.id)
        in
        if mine <> [] then begin
          Journal.shard_start ~path ~shard:s ~format ~config;
          let shuffled =
            List.sort
              (fun _ _ -> if Random.State.bool rng then 1 else -1)
              mine
          in
          List.iter
            (fun i ->
              Journal.shard_append ~path ~shard:s ~index:i ~seq:0
                (cell_record i))
            shuffled
        end
      done;
      let ok =
        match Journal.merge_shards ~path ~format ~config_ok ~index_of with
        | Error _ | Ok None -> false
        | Ok (Some (_, got)) ->
            List.length got = cells
            && read_file path = read_file canonical
            && Journal.shards ~path = []
      in
      Journal.remove_shards ~path;
      Sys.remove path;
      Sys.remove canonical;
      ok)

(* ---- a simulated process death is not a cell failure ---- *)

let test_sink_crash_tears_through_the_barrier () =
  (* [Sink.Crashed] stands for "the process died": the executor must
     re-raise it, never quarantine the cell and carry on *)
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let cell i =
        Atomic.incr ran;
        if i = 1 then raise (Sink.Crashed { site = "test"; point = 99 });
        i
      in
      match Exec.run ~jobs ~cells:4 cell with
      | _ ->
          Alcotest.failf "jobs=%d: crash swallowed by the barrier" jobs
      | exception Sink.Crashed { point; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: the crash point survives" jobs)
            99 point)
    [ 1; 2 ]

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_shard_merge_canonical ]

let () =
  Alcotest.run "exec"
    [
      ( "backoff",
        [
          Alcotest.test_case "deterministic per (seed, cell, attempt)" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "exponential and capped" `Quick
            test_backoff_bounds;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient retries then succeeds" `Quick
            test_transient_retries_then_succeeds;
          Alcotest.test_case "exhaustion poisons" `Quick
            test_transient_exhaustion_poisons;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "poison exactly once, jobs=1" `Quick
            (poison_exactly_once 1);
          Alcotest.test_case "poison exactly once, jobs=4" `Quick
            (poison_exactly_once 4);
          Alcotest.test_case "poison record round-trips" `Quick
            test_poison_record_roundtrip;
          Alcotest.test_case "simulated process death is re-raised" `Quick
            test_sink_crash_tears_through_the_barrier;
        ] );
      ( "worker-loss",
        [
          Alcotest.test_case "lethal cell retires its worker" `Quick
            test_worker_killed_retires_worker;
          Alcotest.test_case "coordinator backstops total loss" `Quick
            test_all_workers_killed_backstop;
        ] );
      ( "journal",
        [
          Alcotest.test_case "parallel journal byte-identical" `Quick
            test_parallel_journal_byte_identical;
          Alcotest.test_case "stop then resume loses nothing" `Quick
            test_stop_then_resume_loses_nothing;
          Alcotest.test_case "shard config mismatch refused" `Quick
            test_shard_config_mismatch_refused;
          Alcotest.test_case "poison outside the run refused" `Quick
            test_poison_outside_run_refused;
          Alcotest.test_case "keep drops and re-runs cells" `Quick
            test_keep_rewrites_dropped_cells;
        ] );
      ("journal-properties", qcheck_tests);
    ]
