(* Tests for the machine-description DSL: byte-exact round-trips across
   every stock preset, override clauses, and typed Parse_failure
   diagnostics on every malformed field. *)

open Convex_machine
module Dsl = Convex_dsl.Machine_dsl
module E = Macs_util.Macs_error

let machine name =
  match Machine.of_name name with Ok m -> m | Error e -> failwith e

let parse_ok spec =
  match Dsl.parse spec with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" spec (E.to_string e)

let parse_err spec =
  match Dsl.parse spec with
  | Ok _ -> Alcotest.failf "%s: expected a parse failure" spec
  | Error e -> e

(* ---- round trips ---- *)

let test_preset_roundtrip () =
  List.iter
    (fun (name, m) ->
      let m' = parse_ok (Dsl.to_spec m) in
      Alcotest.(check bool)
        (name ^ ": parse (to_spec m) = m")
        true (m' = m))
    Machine.presets

let test_canonical_bytes () =
  (* to_spec (parse s) is byte-identical to s for canonical s *)
  List.iter
    (fun (name, spec) ->
      Alcotest.(check string)
        (name ^ ": canonical bytes")
        spec
        (Dsl.to_spec (parse_ok spec)))
    Dsl.preset_specs

let test_preset_specs_cover_presets () =
  Alcotest.(check (list string))
    "same names in order"
    (List.map fst Machine.presets)
    (List.map fst Dsl.preset_specs)

let test_bare_preset_name () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": bare name = preset")
        true
        (parse_ok name = machine name))
    Machine.preset_names

let test_name_escaping () =
  (* clause separators, escapes and control bytes in the display name
     must survive the spec round trip byte-for-byte *)
  List.iter
    (fun odd ->
      let m = { (machine "c240") with Machine.name = odd } in
      let m' = parse_ok (Dsl.to_spec m) in
      Alcotest.(check string) "name survives" odd m'.Machine.name;
      Alcotest.(check string) "canonical bytes" (Dsl.to_spec m)
        (Dsl.to_spec m'))
    [ "a;b"; "50%;off=weird"; "tab\there"; "C-240 (what-if)" ]

(* ---- overrides ---- *)

let test_overrides () =
  let base = machine "c240" in
  let m = parse_ok "c240;banks=64" in
  Alcotest.(check int) "banks" 64 m.Machine.memory.Mem_params.banks;
  Alcotest.(check bool) "rest untouched" true
    ({ m with Machine.memory = base.Machine.memory } = base);
  let m = parse_ok "c240;pipes.mul=2" in
  Alcotest.(check int) "mul pipes" 2 m.Machine.pipes.Machine.multiply_unit;
  Alcotest.(check int) "ld pipes kept" base.Machine.pipes.Machine.load_store
    m.Machine.pipes.Machine.load_store;
  let m = parse_ok "c240;vl=64;busy=4" in
  Alcotest.(check int) "vl" 64 m.Machine.max_vl;
  Alcotest.(check int) "busy" 4 m.Machine.memory.Mem_params.bank_busy_cycles;
  let m = parse_ok "c240;t.mul.z=2" in
  Alcotest.(check (float 0.0))
    "t.mul.z" 2.0
    (Timing.get m.Machine.timing Convex_isa.Instr.Cmul).Timing.z;
  let m = parse_ok "c240;refresh=none" in
  Alcotest.(check int) "refresh off" 0
    m.Machine.memory.Mem_params.refresh_duration;
  (* the default base machine is c240 *)
  Alcotest.(check bool) "default base" true
    (parse_ok "banks=64" = parse_ok "c240;banks=64")

let test_override_roundtrip () =
  (* an overridden machine re-prints to a canonical spec that parses back
     to the same machine *)
  List.iter
    (fun spec ->
      let m = parse_ok spec in
      Alcotest.(check bool)
        (spec ^ ": reparse") true
        (parse_ok (Dsl.to_spec m) = m))
    [
      "c240;banks=64";
      "c240;pipes.mul=2";
      "c240;vl=64;busy=4";
      "c240;t.mul=2/4/0.5/1";
      "ideal;clock=50";
      "no-refresh;ports=2";
    ]

(* ---- identity: every field reaches the spec ---- *)

(* to_spec is the machine's cache and journal identity, so a field it
   dropped would let two different machines share results. *)
let test_every_field_changes_spec () =
  let base = machine "c240" in
  (* naming every field without a catch-all (missing-field warnings are
     errors) stops a new field from compiling until it gets a mutant *)
  let {
    Machine.name = _;
    clock_mhz = _;
    max_vl = _;
    timing = _;
    memory = _;
    pipes = _;
    pair_read_limit = _;
    pair_write_limit = _;
    scalar_cycles = _;
    scalar_memory_cycles = _;
  } =
    base
  in
  let {
    Mem_params.banks = _;
    word_bytes = _;
    bank_busy_cycles = _;
    refresh_period = _;
    refresh_duration = _;
    ports = _;
  } =
    base.Machine.memory
  in
  let mem f = { base with Machine.memory = f base.Machine.memory } in
  let pipes f = { base with Machine.pipes = f base.Machine.pipes } in
  let timing cls f =
    {
      base with
      Machine.timing =
        Timing.map (fun c p -> if c = cls then f p else p) base.Machine.timing;
    }
  in
  let mutants =
    [
      ("name", { base with Machine.name = "C-240 (what-if)" });
      ("clock", { base with Machine.clock_mhz = 25.5 });
      ("vl", { base with Machine.max_vl = 64 });
      ("pipes.ld", pipes (fun p -> { p with Machine.load_store = 2 }));
      ("pipes.add", pipes (fun p -> { p with Machine.add_unit = 2 }));
      ("pipes.mul", pipes (fun p -> { p with Machine.multiply_unit = 2 }));
      ("pair_read_limit", { base with Machine.pair_read_limit = 3 });
      ("pair_write_limit", { base with Machine.pair_write_limit = 2 });
      ("scalar_cycles", { base with Machine.scalar_cycles = 2 });
      ("scalar_memory_cycles", { base with Machine.scalar_memory_cycles = 2 });
      ("banks", mem (fun m -> { m with Mem_params.banks = 64 }));
      ("word_bytes", mem (fun m -> { m with Mem_params.word_bytes = 4 }));
      ("busy", mem (fun m -> { m with Mem_params.bank_busy_cycles = 4 }));
      ( "refresh_period",
        mem (fun m -> { m with Mem_params.refresh_period = 800 }) );
      ( "refresh_duration",
        mem (fun m -> { m with Mem_params.refresh_duration = 16 }) );
      ("ports", mem (fun m -> { m with Mem_params.ports = 2 }));
    ]
    @ List.concat_map
        (fun (cname, cls) ->
          let t field f = ("t." ^ cname ^ "." ^ field, timing cls f) in
          [
            t "x" (fun p -> { p with Timing.x = p.Timing.x + 1 });
            t "y" (fun p -> { p with Timing.y = p.Timing.y + 1 });
            t "z" (fun p -> { p with Timing.z = p.Timing.z +. 0.25 });
            t "b" (fun p -> { p with Timing.b = p.Timing.b + 1 });
          ])
        Dsl.vclass_names
  in
  let spec0 = Dsl.to_spec base in
  List.iter
    (fun (label, m) ->
      Alcotest.(check bool) (label ^ " changes to_spec") true
        (Dsl.to_spec m <> spec0))
    mutants;
  let specs = List.map (fun (_, m) -> Dsl.to_spec m) mutants in
  Alcotest.(check int) "every mutant has its own spec" (List.length specs)
    (List.length (List.sort_uniq compare specs))

(* The one deliberate collapse: with no refresh the period is
   unobservable (Memory.refresh_active short-circuits on a zero
   duration), and to_spec prints refresh=none for every period. *)
let test_refresh_none_collapse () =
  let base = machine "c240" in
  let off period =
    {
      base with
      Machine.memory =
        {
          base.Machine.memory with
          Mem_params.refresh_duration = 0;
          refresh_period = period;
        };
    }
  in
  let a = off 400 and b = off 1000 in
  Alcotest.(check bool) "the machines differ" false (Machine.equal a b);
  Alcotest.(check string) "their specs are equal" (Dsl.to_spec a)
    (Dsl.to_spec b);
  Alcotest.(check bool) "printed as refresh=none" true
    (List.mem "refresh=none" (String.split_on_char ';' (Dsl.to_spec a)))

(* Key identity over generated pairs: the second machine of a pair is the
   first, or the first with one field changed.  Equal machines print one
   spec; unequal machines print different specs, except in the
   refresh=none collapse above. *)
let field_mutation_gen : (Machine.t -> Machine.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let n = int_range 0 64 in
  let mem f (m : Machine.t) = { m with Machine.memory = f m.Machine.memory } in
  let pipes f (m : Machine.t) = { m with Machine.pipes = f m.Machine.pipes } in
  let timing =
    map3
      (fun (_, cls) field v (m : Machine.t) ->
        let set (p : Timing.params) =
          match field with
          | 0 -> { p with Timing.x = v }
          | 1 -> { p with Timing.y = v }
          | 2 -> { p with Timing.z = float_of_int (v + 1) /. 8.0 }
          | _ -> { p with Timing.b = v }
        in
        {
          m with
          Machine.timing =
            Timing.map (fun c p -> if c = cls then set p else p) m.Machine.timing;
        })
      (oneofl Dsl.vclass_names) (int_range 0 3) n
  in
  oneof
    [
      map
        (fun s (m : Machine.t) -> { m with Machine.name = s })
        (string_size ~gen:printable (int_range 0 6));
      map
        (fun f (m : Machine.t) -> { m with Machine.clock_mhz = f })
        (float_range 1.0 100.0);
      map (fun v (m : Machine.t) -> { m with Machine.max_vl = v }) n;
      map (fun v -> pipes (fun p -> { p with Machine.load_store = v })) n;
      map (fun v -> pipes (fun p -> { p with Machine.add_unit = v })) n;
      map (fun v -> pipes (fun p -> { p with Machine.multiply_unit = v })) n;
      map (fun v (m : Machine.t) -> { m with Machine.pair_read_limit = v }) n;
      map (fun v (m : Machine.t) -> { m with Machine.pair_write_limit = v }) n;
      map (fun v (m : Machine.t) -> { m with Machine.scalar_cycles = v }) n;
      map
        (fun v (m : Machine.t) -> { m with Machine.scalar_memory_cycles = v })
        n;
      map (fun v -> mem (fun p -> { p with Mem_params.banks = v })) n;
      map (fun v -> mem (fun p -> { p with Mem_params.word_bytes = v })) n;
      map (fun v -> mem (fun p -> { p with Mem_params.bank_busy_cycles = v })) n;
      map
        (fun v -> mem (fun p -> { p with Mem_params.refresh_period = v }))
        (int_range 1 2000);
      (* zero half the time, so the collapse is exercised *)
      map
        (fun v -> mem (fun p -> { p with Mem_params.refresh_duration = v }))
        (oneof [ return 0; int_range 1 16 ]);
      map (fun v -> mem (fun p -> { p with Mem_params.ports = v })) n;
      timing;
    ]

let machine_pair_gen =
  let open QCheck.Gen in
  let* base = oneofl (List.map snd Machine.presets) in
  let* prior = list_size (int_range 0 3) field_mutation_gen in
  let m = List.fold_left (fun m f -> f m) base prior in
  let* second = frequency [ (1, return Fun.id); (2, field_mutation_gen) ] in
  return (m, second m)

let refresh_none_collapse (a : Machine.t) (b : Machine.t) =
  let off (m : Machine.t) = m.Machine.memory.Mem_params.refresh_duration = 0 in
  off a && off b
  && Machine.equal a
       {
         b with
         Machine.memory =
           {
             b.Machine.memory with
             Mem_params.refresh_period =
               a.Machine.memory.Mem_params.refresh_period;
           };
       }

let prop_spec_is_identity =
  QCheck.Test.make ~count:1000 ~name:"to_spec keys equal iff machines equal"
    (QCheck.make
       ~print:(fun (a, b) -> Dsl.to_spec a ^ "\n" ^ Dsl.to_spec b)
       machine_pair_gen)
    (fun (a, b) ->
      let same_key = String.equal (Dsl.to_spec a) (Dsl.to_spec b) in
      if Machine.equal a b then same_key
      else same_key = refresh_none_collapse a b)

(* ---- typed diagnostics ---- *)

let check_failure ~expect_site spec =
  let e = parse_err spec in
  Alcotest.(check string) (spec ^ ": kind") "parse-failure" (E.kind e);
  Alcotest.(check string) (spec ^ ": site") expect_site (E.site e);
  Alcotest.(check bool)
    (spec ^ ": message nonempty")
    true
    (String.length (E.to_string e) > 0)

let test_malformed_clauses () =
  List.iter
    (check_failure ~expect_site:"Machine_dsl.parse")
    [
      "no-such-preset";
      "c240;frobnicate=1";
      "c240;banks=";
      "c240;banks=many";
      "c240;pipes=1/2";
      "c240;pair=3";
      "c240;t.mul=1/2";
      "c240;t.zorp=1/2/3/4";
      "c240;t.mul.q=3";
      "c240;refresh=8";
      "c240;vl=huge";
      "c240;;banks=64";
      "c240;=3";
    ]

let test_out_of_range () =
  List.iter
    (check_failure ~expect_site:"Machine_dsl.validate")
    [
      "c240;banks=0";
      "c240;clock=-3";
      "c240;vl=9000";
      "c240;pipes.mul=0";
      "c240;t.mul.z=0";
      "c240;refresh=10/5";
      "c240;ports=0";
    ]

let test_validate_presets () =
  List.iter
    (fun (name, m) ->
      match Dsl.validate m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name (E.to_string e))
    Machine.presets

let test_of_name_or_spec () =
  (match Dsl.of_name_or_spec "c240" with
  | Ok m -> Alcotest.(check bool) "preset" true (m = machine "c240")
  | Error e -> Alcotest.fail e);
  (match Dsl.of_name_or_spec "c240;banks=64" with
  | Ok m -> Alcotest.(check int) "spec" 64 m.Machine.memory.Mem_params.banks
  | Error e -> Alcotest.fail e);
  match Dsl.of_name_or_spec "c240;banks=0" with
  | Ok _ -> Alcotest.fail "banks=0 must be rejected"
  | Error msg ->
      Alcotest.(check bool) "flattened message" true (String.length msg > 0)

let () =
  Alcotest.run "convex_dsl"
    [
      ( "round-trip",
        [
          Alcotest.test_case "presets reparse" `Quick test_preset_roundtrip;
          Alcotest.test_case "canonical bytes" `Quick test_canonical_bytes;
          Alcotest.test_case "preset_specs cover presets" `Quick
            test_preset_specs_cover_presets;
          Alcotest.test_case "bare names" `Quick test_bare_preset_name;
          Alcotest.test_case "name escaping" `Quick test_name_escaping;
        ] );
      ( "overrides",
        [
          Alcotest.test_case "field overrides" `Quick test_overrides;
          Alcotest.test_case "override round-trip" `Quick
            test_override_roundtrip;
        ] );
      ( "identity",
        [
          Alcotest.test_case "every field changes to_spec" `Quick
            test_every_field_changes_spec;
          Alcotest.test_case "refresh=none collapse" `Quick
            test_refresh_none_collapse;
          QCheck_alcotest.to_alcotest prop_spec_is_identity;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "malformed clauses" `Quick test_malformed_clauses;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "presets validate" `Quick test_validate_presets;
          Alcotest.test_case "of_name_or_spec" `Quick test_of_name_or_spec;
        ] );
    ]
