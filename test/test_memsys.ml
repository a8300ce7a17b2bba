(* Tests for convex_memsys: layout, contention model, and the bank-level
   memory model (conflicts, refresh, port exclusivity). *)

open Convex_machine
open Convex_memsys

(* ---- Layout ---- *)

let test_layout_bases () =
  let l = Layout.build ~base:0 [ ("A", 10); ("B", 5) ] in
  Alcotest.(check int) "A base" 0 (Layout.base_of l "A");
  Alcotest.(check int) "B base" 11 (Layout.base_of l "B");
  Alcotest.(check int) "A size" 10 (Layout.size_of l "A");
  Alcotest.(check (list string)) "arrays" [ "A"; "B" ] (Layout.arrays l)

let test_layout_duplicate () =
  Alcotest.check_raises "dup"
    (Invalid_argument "Layout.build: duplicate array A") (fun () ->
      ignore (Layout.build [ ("A", 1); ("A", 2) ]))

let test_layout_bad_size () =
  Alcotest.check_raises "size"
    (Invalid_argument "Layout.build: size of A <= 0") (fun () ->
      ignore (Layout.build [ ("A", 0) ]))

let test_layout_unknown () =
  let l = Layout.build [ ("A", 4) ] in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Layout.base_of l "Z"))

let test_word_of () =
  let l = Layout.build ~base:100 [ ("A", 64) ] in
  let m : Convex_isa.Instr.mem = { array = "A"; offset = 3; stride = 2 } in
  (* base + offset + (base_index + element) * stride *)
  Alcotest.(check int) "word" (100 + 3 + ((5 + 7) * 2))
    (Layout.word_of l m ~base_index:5 ~element:7);
  Alcotest.(check int) "scalar word" (100 + 3 + (5 * 2))
    (Layout.scalar_word_of l m ~base_index:5)

let test_alias () =
  let l = Layout.build [ ("A", 16); ("B", 16) ] in
  Layout.alias l ~existing:"A" "A2";
  Alcotest.(check int) "same base" (Layout.base_of l "A")
    (Layout.base_of l "A2");
  Alcotest.check_raises "missing target" Not_found (fun () ->
      Layout.alias l ~existing:"nope" "X");
  Alcotest.check_raises "already placed"
    (Invalid_argument "Layout.alias: B already placed") (fun () ->
      Layout.alias l ~existing:"A" "B")

let test_layout_of_program () =
  let body =
    [
      Convex_isa.Instr.Vld
        { dst = Convex_isa.Reg.v 0; src = { array = "Z"; offset = 0; stride = 1 } };
    ]
  in
  let p = Convex_isa.Program.make ~name:"p" body in
  let l = Layout.of_program p in
  Alcotest.(check int) "size" 4096 (Layout.size_of l "Z")

(* ---- Contention ---- *)

let test_contention_none () =
  Alcotest.(check (float 1e-9)) "steal 0" 0.0
    (Contention.steal_probability Contention.none);
  for c = 0 to 100 do
    Alcotest.(check bool) "never stolen" false
      (Contention.sampler Contention.none c)
  done

let test_contention_load () =
  Alcotest.(check (float 1e-9)) "load 1 -> none" 0.0
    (Contention.steal_probability (Contention.of_load_average 1.0));
  let heavy = Contention.of_load_average 5.1 in
  let p = Contention.steal_probability heavy in
  Alcotest.(check bool) "load 5.1 steals 0.3-0.4" true (p > 0.3 && p < 0.4)

let test_contention_deterministic () =
  let c = Contention.of_steal_probability 0.5 in
  for cycle = 0 to 50 do
    Alcotest.(check bool) "repeatable"
      (Contention.sampler c cycle)
      (Contention.sampler c cycle)
  done

let test_contention_rate () =
  let c = Contention.of_steal_probability 0.3 in
  let n = 100_000 in
  let stolen = ref 0 in
  for cycle = 0 to n - 1 do
    if Contention.sampler c cycle then incr stolen
  done;
  let rate = float_of_int !stolen /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.3" rate)
    true
    (rate > 0.27 && rate < 0.33)

let test_contention_invalid () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Contention.of_steal_probability: out of [0;1)")
    (fun () -> ignore (Contention.of_steal_probability 1.0))

(* ---- Memory ---- *)

let no_refresh_params = Mem_params.no_refresh Mem_params.c240

let test_unit_stride_rate () =
  (* a unit-stride stream sustains one access per cycle with no stalls *)
  let m = Memory.create no_refresh_params in
  for c = 0 to 255 do
    Alcotest.(check bool) "accepted" true (Memory.try_access m ~cycle:c ~word:c)
  done;
  Alcotest.(check int) "256 accesses" 256 (Memory.stats_accesses m);
  Alcotest.(check int) "no conflicts" 0 (Memory.stats_conflict_stalls m)

let test_same_bank_conflict () =
  (* stride 32 hits the same bank every access: the second access within
     the 8-cycle bank busy time must fail *)
  let m = Memory.create no_refresh_params in
  Alcotest.(check bool) "first ok" true (Memory.try_access m ~cycle:0 ~word:0);
  Alcotest.(check bool) "same bank busy" false
    (Memory.try_access m ~cycle:1 ~word:32);
  Alcotest.(check bool) "after busy time ok" true
    (Memory.try_access m ~cycle:8 ~word:32);
  Alcotest.(check int) "one conflict" 1 (Memory.stats_conflict_stalls m)

let test_port_exclusive () =
  let m = Memory.create no_refresh_params in
  Alcotest.(check bool) "first" true (Memory.try_access m ~cycle:5 ~word:0);
  Alcotest.(check bool) "same cycle denied" false
    (Memory.try_access m ~cycle:5 ~word:1);
  Alcotest.(check int) "port stall" 1 (Memory.stats_port_stalls m)

let test_refresh_window () =
  let m = Memory.create Mem_params.c240 in
  (* the refresh window sits at the end of each 400-cycle period *)
  Alcotest.(check bool) "cycle 0 ok" false (Memory.refresh_active m ~cycle:0);
  Alcotest.(check bool) "cycle 391 ok" false
    (Memory.refresh_active m ~cycle:391);
  Alcotest.(check bool) "cycle 392 blocked" true
    (Memory.refresh_active m ~cycle:392);
  Alcotest.(check bool) "cycle 399 blocked" true
    (Memory.refresh_active m ~cycle:399);
  Alcotest.(check bool) "cycle 400 ok" false
    (Memory.refresh_active m ~cycle:400);
  Alcotest.(check bool) "access during refresh denied" false
    (Memory.try_access m ~cycle:395 ~word:0);
  Alcotest.(check int) "refresh stall" 1 (Memory.stats_refresh_stalls m)

let test_refresh_disabled () =
  let m = Memory.create no_refresh_params in
  Alcotest.(check bool) "never" false (Memory.refresh_active m ~cycle:399)

let test_negative_word_bank () =
  let m = Memory.create no_refresh_params in
  let b = Memory.bank_of m ~word:(-1) in
  Alcotest.(check bool) "bank in range" true (b >= 0 && b < 32)

let test_reset () =
  let m = Memory.create no_refresh_params in
  ignore (Memory.try_access m ~cycle:0 ~word:0);
  Memory.reset m;
  Alcotest.(check int) "stats cleared" 0 (Memory.stats_accesses m);
  Alcotest.(check bool) "bank free again" true
    (Memory.try_access m ~cycle:0 ~word:0)

let test_out_of_order_port () =
  (* queries arrive in issue order, not time order: a later query for an
     earlier cycle must still see the port as taken *)
  let m = Memory.create no_refresh_params in
  Alcotest.(check bool) "t=10" true (Memory.try_access m ~cycle:10 ~word:0);
  Alcotest.(check bool) "t=10 again" false
    (Memory.try_access m ~cycle:10 ~word:64)

(* ---- admit_stream at strip-mine remainder edges ----

   The tiered fast path admits a whole access stream in closed form; its
   contract is bit-equivalence with the cycle-by-cycle spin loop —
   including the short remainder strips LFK2 and LFK6 leave behind
   (counts of 1..5 and 36/100 elements), and including transient fault
   windows, where the only legal answers are "identical to the spin
   loop" or "None with the model untouched". *)

(* the stepper's element recurrence (Sim.run): element 0 spins from
   [start], element e from the previous element's grant plus the stream
   rate [z] — exactly the [acquire_mem ~earliest] chain *)
let spin_reference m ~start ~count ~z ~word0 ~wstride ~max_slip =
  let out = Array.make count 0.0 in
  let exception Slipped in
  try
    for e = 0 to count - 1 do
      let c = ref (if e = 0 then start else int_of_float out.(e - 1) + z) in
      let spins = ref 0 in
      while
        not (Memory.try_access m ~cycle:!c ~word:(word0 + (e * wstride)))
      do
        incr c;
        incr spins;
        if !spins > max_slip then raise Slipped
      done;
      out.(e) <- float_of_int !c
    done;
    Some out
  with Slipped -> None

let counters m =
  [
    Memory.stats_accesses m;
    Memory.stats_conflict_stalls m;
    Memory.stats_refresh_stalls m;
    Memory.stats_port_stalls m;
    Memory.stats_fault_stalls m;
  ]

(* after both models processed the same stream, they must keep agreeing:
   probe a mixed follow-up pattern access by access *)
let probe_equivalent ~msg m1 m2 ~from =
  for i = 0 to 39 do
    let cycle = from + (i / 2) and word = i * 13 in
    let a = Memory.try_access m1 ~cycle ~word
    and b = Memory.try_access m2 ~cycle ~word in
    if a <> b then
      Alcotest.failf "%s: probe %d diverges (cycle %d word %d): %b vs %b"
        msg i cycle word a b
  done

let transient_plan =
  match Convex_fault.Fault.parse "seed=7;window=100-600;degrade-bank=0*4" with
  | Ok p -> p
  | Error e -> failwith e

let admit_differential ~faults ~params ~start ~count ~z ~wstride =
  let mk () = Memory.create ~faults params in
  let m1 = mk () and m2 = mk () in
  let max_slip = 64 in
  let msg =
    Printf.sprintf "start=%d count=%d z=%d stride=%d plan=%s" start count z
      wstride faults.Convex_fault.Fault.name
  in
  match
    Memory.admit_stream m1 ~start ~count ~z ~word0:0 ~wstride ~max_slip
  with
  | Ok cycles -> (
      match
        spin_reference m2 ~start ~count ~z ~word0:0 ~wstride ~max_slip
      with
      | None -> Alcotest.failf "%s: fast path admitted, spin loop slipped" msg
      | Some expect ->
          Alcotest.(check (array (float 0.0)))
            (msg ^ ": access cycles") expect cycles;
          Alcotest.(check (list int))
            (msg ^ ": counters") (counters m2) (counters m1);
          probe_equivalent ~msg m1 m2
            ~from:(int_of_float cycles.(count - 1) + 1);
          true)
  | Error _ ->
      (* a rejection must leave the model bit-untouched *)
      Alcotest.(check (list int))
        (msg ^ ": untouched counters") (counters (mk ())) (counters m1);
      probe_equivalent ~msg:(msg ^ " untouched") m1 (mk ()) ~from:start;
      false

let test_admit_remainder_edges () =
  (* the remainder strips LFK2/LFK6 leave behind: 996 = 7*128 + 100,
     chime tails of 1..5, and the 36-element inner shapes of LFK2 *)
  let admitted = ref 0 and rejected = ref 0 in
  List.iter
    (fun faults ->
      List.iter
        (fun start ->
          List.iter
            (fun count ->
              List.iter
                (fun wstride ->
                  List.iter
                    (fun z ->
                      if
                        admit_differential ~faults ~params:Mem_params.c240
                          ~start ~count ~z ~wstride
                      then incr admitted
                      else incr rejected)
                    [ 1; 2 ])
                [ 1; 2; 16; 32 ])
            [ 1; 2; 3; 5; 36; 100 ])
        [ 0; 3; 95; 397; 650 ])
    [ Convex_fault.Fault.none; transient_plan ];
  (* the sweep must exercise both verdicts, or the differential is vacuous *)
  Alcotest.(check bool) "some streams admitted" true (!admitted > 0);
  Alcotest.(check bool) "some streams rejected" true (!rejected > 0)

let test_admit_transient_window () =
  (* a stream wholly inside the fault window must be rejected (the plan is
     not quiescent there); one starting after it closes must leap *)
  let params = Mem_params.c240 in
  let inside =
    admit_differential ~faults:transient_plan ~params ~start:150 ~count:36
      ~z:1 ~wstride:1
  in
  Alcotest.(check bool) "inside the window: fall back" false inside;
  let after =
    admit_differential ~faults:transient_plan ~params ~start:650 ~count:36
      ~z:1 ~wstride:1
  in
  Alcotest.(check bool) "after the window: leap" true after

let test_admit_used_model () =
  (* remainder strip admitted right behind a completed full strip: the
     port high-water chase must stay bit-equivalent to the spin loop *)
  let mk () =
    let m = Memory.create Mem_params.c240 in
    for c = 0 to 127 do
      assert (Memory.try_access m ~cycle:c ~word:c)
    done;
    m
  in
  let m1 = mk () and m2 = mk () in
  match
    Memory.admit_stream m1 ~start:100 ~count:5 ~z:1 ~word0:128 ~wstride:1
      ~max_slip:64
  with
  | Error _ ->
      (* rejecting the chase is legal; it must still be a clean rejection *)
      probe_equivalent ~msg:"used model untouched" m1 (mk ()) ~from:128
  | Ok cycles -> (
      match
        spin_reference m2 ~start:100 ~count:5 ~z:1 ~word0:128 ~wstride:1
          ~max_slip:64
      with
      | None -> Alcotest.fail "spin loop slipped where fast path admitted"
      | Some expect ->
          Alcotest.(check (array (float 0.0))) "chased cycles" expect cycles;
          probe_equivalent ~msg:"used model" m1 m2
            ~from:(int_of_float cycles.(4) + 1))

(* ---- qcheck ---- *)

(* Admission on a model that earlier accesses have left with busy banks
   and consumed port slots, against the spin loop on an identical model:
   equal cycles, counters and follow-up behaviour when admitted, an
   untouched model when refused.  Covers both the O(banks) conflict-free
   proof and the per-element pass, on every bank count the served mix
   uses and with and without refresh. *)
let prop_admit_matches_spin =
  let gen =
    QCheck.Gen.(
      let* banks = oneofl [ 8; 16; 32; 64; 128 ] in
      let* refresh = bool in
      let* start = int_range 0 500 in
      (* earlier accesses close below the start leave the first touches'
         banks busy; a few land above it, past the port mark *)
      let* prior =
        list_size (int_range 0 24)
          (pair (map (fun d -> max 0 (start + d)) (int_range (-24) 2))
             (int_range 0 300))
      in
      let* count = int_range 1 160 in
      let* z = int_range 1 3 in
      let* wstride = int_range (-3) 40 in
      let* max_slip = oneofl [ 8; 64; 4095 ] in
      return (banks, refresh, prior, start, count, z, wstride, max_slip))
  in
  QCheck.Test.make ~count:400
    ~name:"admission agrees with the spin loop on a used model"
    (QCheck.make gen)
    (fun (banks, refresh, prior, start, count, z, wstride, max_slip) ->
      let params =
        { (if refresh then Mem_params.c240 else no_refresh_params) with banks }
      in
      let mk () =
        let m = Memory.create params in
        List.iter
          (fun (cycle, word) -> ignore (Memory.try_access m ~cycle ~word))
          prior;
        m
      in
      let m1 = mk () and m2 = mk () in
      let word0 = 7 in
      match
        Memory.admit_stream m1 ~start ~count ~z ~word0 ~wstride ~max_slip
      with
      | Ok cycles -> (
          match spin_reference m2 ~start ~count ~z ~word0 ~wstride ~max_slip with
          | None -> false
          | Some expect ->
              expect = cycles
              && counters m1 = counters m2
              &&
              (probe_equivalent ~msg:"used model" m1 m2
                 ~from:(int_of_float cycles.(count - 1) + 1);
               true))
      | Error _ ->
          counters m1 = counters (mk ())
          &&
          (probe_equivalent ~msg:"refused" m1 (mk ()) ~from:start;
           true))


let prop_odd_strides_conflict_free =
  (* strides coprime with the bank count never revisit a bank within its
     busy time at one access per cycle *)
  QCheck.Test.make ~count:50 ~name:"odd strides are conflict-free"
    QCheck.(make Gen.(map (fun k -> (2 * k) + 1) (int_range 0 20)))
    (fun stride ->
      let m = Memory.create no_refresh_params in
      let ok = ref true in
      for c = 0 to 199 do
        if not (Memory.try_access m ~cycle:c ~word:(c * stride)) then
          ok := false
      done;
      !ok)

let prop_bank_of_range =
  QCheck.Test.make ~count:200 ~name:"bank index in range"
    QCheck.(int_range (-10_000) 10_000)
    (fun word ->
      let m = Memory.create no_refresh_params in
      let b = Memory.bank_of m ~word in
      b >= 0 && b < 32)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_odd_strides_conflict_free; prop_bank_of_range; prop_admit_matches_spin ]

let () =
  Alcotest.run "convex_memsys"
    [
      ( "layout",
        [
          Alcotest.test_case "bases" `Quick test_layout_bases;
          Alcotest.test_case "duplicate" `Quick test_layout_duplicate;
          Alcotest.test_case "bad size" `Quick test_layout_bad_size;
          Alcotest.test_case "unknown" `Quick test_layout_unknown;
          Alcotest.test_case "word_of" `Quick test_word_of;
          Alcotest.test_case "alias" `Quick test_alias;
          Alcotest.test_case "of_program" `Quick test_layout_of_program;
        ] );
      ( "contention",
        [
          Alcotest.test_case "none" `Quick test_contention_none;
          Alcotest.test_case "load mapping" `Quick test_contention_load;
          Alcotest.test_case "deterministic" `Quick
            test_contention_deterministic;
          Alcotest.test_case "empirical rate" `Quick test_contention_rate;
          Alcotest.test_case "invalid probability" `Quick
            test_contention_invalid;
        ] );
      ( "memory",
        [
          Alcotest.test_case "unit-stride full rate" `Quick
            test_unit_stride_rate;
          Alcotest.test_case "same-bank conflict" `Quick
            test_same_bank_conflict;
          Alcotest.test_case "port exclusivity" `Quick test_port_exclusive;
          Alcotest.test_case "refresh window" `Quick test_refresh_window;
          Alcotest.test_case "refresh disabled" `Quick test_refresh_disabled;
          Alcotest.test_case "negative word" `Quick test_negative_word_bank;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "out-of-order port" `Quick
            test_out_of_order_port;
        ] );
      ( "admit_stream",
        [
          Alcotest.test_case "strip-mine remainder edges" `Quick
            test_admit_remainder_edges;
          Alcotest.test_case "transient fault window" `Quick
            test_admit_transient_window;
          Alcotest.test_case "used model chase" `Quick test_admit_used_model;
        ] );
      ("properties", qcheck_tests);
    ]
