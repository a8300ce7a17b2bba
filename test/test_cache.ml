(* Tests for the crash-consistent content-addressed result cache and the
   write-boundary sink it is built on: key sensitivity, store/find round
   trips, the never-serve-corruption contract at every byte offset,
   maintenance (stat/verify/gc), and cold-vs-warm byte identity of the
   harnesses that use it. *)

open Macs_util
module Cache = Convex_cache.Cache
module Campaign = Convex_chaos.Campaign
module Driver = Convex_fuzz.Driver

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "macs_cache_%s_%d_%d" name (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ---- the sink ---- *)

let test_sink_counts_and_disarmed_is_transparent () =
  Sink.reset ();
  let path = Filename.temp_file "macs_sink" ".txt" in
  let oc = open_out_bin path in
  Sink.write oc ~site:"a" "one";
  Sink.write oc ~site:"b" "two";
  close_out oc;
  Alcotest.(check int) "two boundaries" 2 (Sink.boundaries ());
  Alcotest.(check bool) "not crashed" false (Sink.crashed ());
  Alcotest.(check string) "bytes all landed" "onetwo" (read_file path);
  Sys.remove path

let test_sink_modes () =
  let run mode =
    Sink.reset ();
    Sink.arm ~at:2 ~mode;
    let path = Filename.temp_file "macs_sink" ".txt" in
    let oc = open_out_bin path in
    Sink.write oc ~site:"a" "head";
    let crashed =
      match Sink.write oc ~site:"b" "tail" with
      | () -> false
      | exception Sink.Crashed { point; _ } ->
          Alcotest.(check int) "fired at boundary 2" 2 point;
          true
    in
    close_out oc;
    Alcotest.(check bool) "armed boundary crashes" true crashed;
    (* the latch: every later boundary dies without touching the file *)
    let oc = open_out_gen [ Open_append ] 0o644 path in
    (match Sink.write oc ~site:"c" "late" with
    | () -> Alcotest.fail "dead sink must not write"
    | exception Sink.Crashed _ -> ());
    close_out oc;
    let s = read_file path in
    Sys.remove path;
    Sink.reset ();
    s
  in
  Alcotest.(check string) "Before: nothing of the write" "head"
    (run Sink.Before);
  Alcotest.(check string) "Torn: a strict prefix" "headta" (run Sink.Torn);
  Alcotest.(check string) "After: all bytes, then death" "headtail"
    (run Sink.After)

let test_sink_rename_boundary () =
  Sink.reset ();
  let dir = fresh_dir "rename" in
  let src = Filename.concat dir "src" and dst = Filename.concat dir "dst" in
  write_file src "payload";
  Sink.arm ~at:1 ~mode:Sink.Before;
  (match Sink.rename ~site:"publish" src dst with
  | () -> Alcotest.fail "armed rename must crash"
  | exception Sink.Crashed _ -> ());
  Alcotest.(check bool) "Before: not renamed" true (Sys.file_exists src);
  Alcotest.(check bool) "Before: dst absent" false (Sys.file_exists dst);
  Sink.reset ();
  Sink.arm ~at:1 ~mode:Sink.After;
  (match Sink.rename ~site:"publish" src dst with
  | () -> Alcotest.fail "armed rename must crash"
  | exception Sink.Crashed _ -> ());
  Alcotest.(check bool) "After: renamed, then death" true (Sys.file_exists dst);
  Sink.reset ();
  rm_rf dir

(* ---- store / find ---- *)

let test_store_find_round_trip () =
  let dir = fresh_dir "roundtrip" in
  let t = Cache.open_dir dir in
  let key = Cache.key ~kind:"test" [ ("a", "1"); ("b", "two\nlines") ] in
  Alcotest.(check (option string)) "miss before store" None (Cache.find t ~key);
  let payload = "line one\nline two\twith tab\n%percent" in
  Cache.store t ~key payload;
  Alcotest.(check (option string))
    "hit after store" (Some payload) (Cache.find t ~key);
  (* storing again is a no-op, not a rewrite *)
  Cache.store t ~key "different bytes";
  Alcotest.(check (option string))
    "first writer wins" (Some payload) (Cache.find t ~key);
  let c = Cache.counters t in
  Alcotest.(check int) "one miss" 1 c.Cache.misses;
  Alcotest.(check int) "two hits" 2 c.Cache.hits;
  Alcotest.(check int) "one store" 1 c.Cache.stores;
  rm_rf dir

let test_memo () =
  let dir = fresh_dir "memo" in
  let t = Cache.open_dir dir in
  let key = Cache.key ~kind:"test" [ ("case", "memo") ] in
  let encode n =
    [
      { Journal.tag = "n"; fields = [ ("v", string_of_int n) ] };
      { Journal.tag = "end"; fields = [] };
    ]
  in
  let decode = function
    | [ ({ Journal.tag = "n"; _ } as r); { Journal.tag = "end"; _ } ] ->
        Option.to_result ~none:"bad v"
          (Option.bind (Journal.field r "v") int_of_string_opt)
    | _ -> Error "expected n, end"
  in
  let calls = ref 0 in
  let memo () =
    Cache.memo t ~key ~encode ~decode (fun () ->
        incr calls;
        42)
  in
  Alcotest.(check int) "cold run computes" 42 (memo ());
  Alcotest.(check (option string))
    "payload is the records' journal lines"
    (Some (String.concat "\n" (List.map Journal.encode (encode 42))))
    (Cache.find t ~key);
  Alcotest.(check int) "warm run replays" 42 (memo ());
  Alcotest.(check int) "computed once" 1 !calls;
  (* an entry that verifies but does not decode is neither served nor
     kept: it is quarantined like a corrupt one and recomputed *)
  Sys.remove (Cache.entry_path t key);
  Cache.store t ~key "n\tv=oops";
  Cache.reset_counters t;
  Alcotest.(check int) "undecodable entry recomputed" 42 (memo ());
  Alcotest.(check int) "computed again" 2 !calls;
  let c = Cache.counters t in
  Alcotest.(check (list int)) "hits, misses, quarantined, stores"
    [ 0; 1; 1; 1 ]
    [ c.Cache.hits; c.Cache.misses; c.Cache.quarantined; c.Cache.stores ];
  Alcotest.(check int) "the re-stored entry is served" 42 (memo ());
  Alcotest.(check int) "no third compute" 2 !calls;
  rm_rf dir

let test_key_sensitivity () =
  let base = [ ("machine", "c240"); ("kernel", "k1") ] in
  let k0 = Cache.key ~kind:"cell" base in
  Alcotest.(check string) "keys are deterministic" k0 (Cache.key ~kind:"cell" base);
  List.iter
    (fun (label, kind, parts) ->
      Alcotest.(check bool) label true (Cache.key ~kind parts <> k0))
    [
      ("kind changes the key", "case", base);
      ("value changes the key", "cell", [ ("machine", "c240"); ("kernel", "k2") ]);
      ("name changes the key", "cell", [ ("machine", "c240"); ("kern", "k1") ]);
      ("order changes the key", "cell", List.rev base);
      ("extra part changes the key", "cell", base @ [ ("plan", "none") ]);
    ]

(* ---- key identity: equal keys exactly when the inputs are equal ---- *)

module Fault = Convex_fault.Fault

(* A plan as written: seed, optional window, injection clauses. *)
let clause_gen =
  let open QCheck.Gen in
  let bank = int_range 0 31 in
  let pr = Printf.sprintf in
  oneof
    [
      map2 (pr "degrade-bank=%d*%d") bank (int_range 1 8);
      map3
        (fun b lo len ->
          if len = 0 then pr "stuck-bank=%d@%d-" b lo
          else pr "stuck-bank=%d@%d-%d" b lo (lo + len))
        bank (int_range 0 5000) (int_range 0 500);
      map3 (fun b p d -> pr "scrub=%d/%d*%d" b (p + d) d) bank
        (int_range 1 400) (int_range 1 50);
      map (pr "jitter=%d") (int_range 0 20);
      map2
        (fun pipe q -> pr "slow-pipe=%s*%g" pipe (1.0 +. (float_of_int q /. 4.0)))
        (oneofl [ "load/store"; "add"; "multiply" ])
        (int_range 0 12);
      map2 (fun d p -> pr "port-spike=%d/%d" d (d + p)) (int_range 1 20)
        (int_range 1 200);
    ]

let window_gen =
  QCheck.Gen.(
    opt (map2 (fun lo len -> (lo, lo + len)) (int_range 0 2000) (int_range 1 2000)))

let plan_parts_gen =
  QCheck.Gen.(
    triple (int_range 0 9) window_gen (list_size (int_range 0 3) clause_gen))

(* one clause of the written plan changed, added or dropped *)
let plan_mutation_gen (seed, window, clauses) =
  let open QCheck.Gen in
  let n = List.length clauses in
  let replace i c = List.mapi (fun j c' -> if i = j then c else c') clauses in
  let drop i = List.filteri (fun j _ -> i <> j) clauses in
  oneof
    ([
       map (fun s -> (s, window, clauses)) (int_range 0 9);
       map (fun w -> (seed, w, clauses)) window_gen;
       map (fun c -> (seed, window, clauses @ [ c ])) clause_gen;
     ]
    @
    if n = 0 then []
    else
      [
        map2 (fun i c -> (seed, window, replace i c)) (int_bound (n - 1)) clause_gen;
        map (fun i -> (seed, window, drop i)) (int_bound (n - 1));
      ])

let plan_of_parts (seed, window, clauses) =
  let spec =
    String.concat ";"
      ((Printf.sprintf "seed=%d" seed
       :: Option.to_list
            (Option.map (fun (lo, hi) -> Printf.sprintf "window=%d-%d" lo hi) window))
      @ clauses)
  in
  match Fault.parse spec with
  | Ok p -> p
  | Error e -> failwith (spec ^ ": " ^ e)

(* one field of the kernel changed *)
let kernel_mutation_gen (k : Lfk.Kernel.t) =
  let open QCheck.Gen in
  let first_seg f =
    match k.segments with
    | s :: rest -> { k with segments = f s :: rest }
    | [] -> { k with segments = [ { base = 0; length = 1; shifts = [] } ] }
  in
  oneofl
    [
      { k with id = k.id + 1 };
      { k with name = k.name ^ "'" };
      { k with description = k.description ^ "." };
      { k with fortran = k.fortran ^ "!" };
      { k with body = k.body @ [ List.hd k.body ] };
      { k with scalars = k.scalars @ [ ("zz", 1.0) ] };
      {
        k with
        scalars =
          List.mapi (fun i (n, v) -> if i = 0 then (n, v +. 1.0) else (n, v)) k.scalars;
      };
      { k with arrays = List.map (fun (n, size) -> (n, size + 1)) k.arrays };
      { k with aliases = k.aliases @ [ ("ZZ", fst (List.hd k.arrays)) ] };
      first_seg (fun s -> { s with length = s.length + 1 });
      first_seg (fun s -> { s with base = s.base + 1 });
      first_seg (fun s -> { s with shifts = s.shifts @ [ ("ZZ", 1) ] });
      { k with outer_ops = k.outer_ops + 1 };
      {
        k with
        acc =
          (match k.acc with
          | None -> Some { init = Zero; scale_by = None; store_to = None }
          | Some _ -> None);
      };
    ]

let input_pair_gen =
  let open QCheck.Gen in
  let* k = oneof [ oneofl Lfk.Kernels.all; Convex_fuzz.Gen.kernel_gen ] in
  let* parts = plan_parts_gen in
  let* k', parts' =
    frequency
      [
        (1, return (k, parts));
        (1, map (fun k' -> (k', parts)) (kernel_mutation_gen k));
        (1, map (fun p' -> (k, p')) (plan_mutation_gen parts));
      ]
  in
  return ((k, plan_of_parts parts), (k', plan_of_parts parts'))

let suite_key (k, plan) =
  Convex_harness.Supervisor.cell_key
    (Macs_report.Suite_journal.config_of_run
       ~machine:Convex_machine.Machine.c240 ~opt:Fcc.Opt_level.v61 ~faults:plan
       ~guard:Convex_vpsim.Sim.default_guard)
    ~budget:Convex_harness.Budget.none k

let chaos_key (k, plan) =
  Campaign.cell_key Campaign.default_config { Campaign.index = 0; kernel = k; plan }

let fuzz_key (_, plan) =
  Driver.case_key { Driver.default_config with fault_plans = [ plan ] } ~index:0

let prop_keys_are_identities =
  QCheck.Test.make ~count:500
    ~name:"suite/chaos/fuzz keys equal iff kernel and plan equal"
    (QCheck.make
       ~print:(fun ((k, p), (k', p')) ->
         String.concat "\n"
           [ Lfk.Codec.to_string k; Fault.to_spec p; Lfk.Codec.to_string k'; Fault.to_spec p' ])
       input_pair_gen)
    (fun (((k, p) as a), ((k', p') as b)) ->
      let same_kernel = compare k k' = 0 in
      let same_plan = Fault.equal_behaviour p p' in
      (* the suite journals a plan without injection clauses as "" *)
      let same_suite_plan = same_plan || (Fault.is_none p && Fault.is_none p') in
      (suite_key a = suite_key b) = (same_kernel && same_suite_plan)
      && (chaos_key a = chaos_key b) = (same_kernel && same_plan)
      && (fuzz_key a = fuzz_key b) = same_plan)

(* ---- corruption is quarantined, never served ---- *)

let quarantine_count dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Array.length (Sys.readdir q) else 0

let test_corruption_at_every_offset () =
  let dir = fresh_dir "corrupt" in
  let t = Cache.open_dir dir in
  let key = Cache.key ~kind:"test" [ ("case", "offsets") ] in
  let payload = "some cached result\nwith a second line and a digest tail" in
  Cache.store t ~key payload;
  let path = Cache.entry_path t key in
  let pristine = read_file path in
  let n = String.length pristine in
  for off = 0 to n - 1 do
    (* truncation to [off] bytes *)
    write_file path (String.sub pristine 0 off);
    (match Cache.find t ~key with
    | None -> ()
    | Some got ->
        Alcotest.failf "truncated at %d/%d served %S" off n got);
    (* the corrupt file moved aside: put the entry back and flip one bit *)
    write_file path
      (String.mapi
         (fun i c -> if i = off then Char.chr (Char.code c lxor 0x20) else c)
         pristine);
    match Cache.find t ~key with
    | None -> ()
    | Some got ->
        (* flipping a bit inside the payload must be caught by the MD5;
           serving the original bytes would mean the file was never read *)
        Alcotest.failf "bit-flipped at %d/%d served %S" off n got
  done;
  Alcotest.(check bool) "every corruption quarantined" true
    (quarantine_count dir = 2 * n);
  (* a later store repopulates and serves again *)
  Cache.store t ~key payload;
  Alcotest.(check (option string))
    "recomputed entry served" (Some payload) (Cache.find t ~key);
  rm_rf dir

let prop_random_corruption_never_served =
  QCheck.Test.make ~count:200
    ~name:"random truncation/flip of a random entry is never served"
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_range 1 200) Gen.char)
        small_nat small_nat)
    (fun (payload, off_seed, flip) ->
      let dir = fresh_dir "qc" in
      let t = Cache.open_dir dir in
      let key = Cache.key ~kind:"qc" [ ("p", payload) ] in
      Cache.store t ~key payload;
      let path = Cache.entry_path t key in
      let pristine = read_file path in
      let off = off_seed mod String.length pristine in
      write_file path
        (if flip mod 2 = 0 then String.sub pristine 0 off
         else
           String.mapi
             (fun i c ->
               if i = off then Char.chr (Char.code c lxor (1 lsl (flip mod 8)))
               else c)
             pristine);
      let served = Cache.find t ~key in
      rm_rf dir;
      (* the truncation is always strict and the flip always changes a
         byte, so serving anything means a verification hole *)
      served = None)

(* ---- maintenance ---- *)

let test_stat_verify_gc () =
  let dir = fresh_dir "maint" in
  let t = Cache.open_dir dir in
  let keys =
    List.map
      (fun i ->
        let key = Cache.key ~kind:"m" [ ("i", string_of_int i) ] in
        Cache.store t ~key (Printf.sprintf "payload number %d" i);
        key)
      [ 0; 1; 2 ]
  in
  Cache.log_run t ~label:"first";
  (* a second process would open the cache with fresh counters *)
  Cache.reset_counters t;
  Cache.log_run t ~label:"second";
  let s = Cache.stat t in
  Alcotest.(check int) "three entries" 3 s.Cache.entries;
  Alcotest.(check int) "two logged runs" 2 s.Cache.runs;
  Alcotest.(check int) "three stores total" 3 s.Cache.total.Cache.stores;
  (* corrupt one entry behind the cache's back; verify must catch it *)
  let victim = List.nth keys 1 in
  write_file (Cache.entry_path t victim) "not an entry at all";
  let v = Cache.verify t in
  Alcotest.(check int) "checked all three" 3 v.Cache.checked;
  Alcotest.(check int) "two ok" 2 v.Cache.ok;
  (match v.Cache.bad with
  | [ (k, _) ] -> Alcotest.(check string) "the victim" victim k
  | l -> Alcotest.failf "expected one bad entry, got %d" (List.length l));
  Alcotest.(check int) "victim quarantined" 1 (quarantine_count dir);
  (* an orphaned tmp file from a crashed store *)
  let orphan =
    Filename.concat
      (Filename.dirname (Cache.entry_path t victim))
      (victim ^ ".tmp.0")
  in
  write_file orphan "half a store";
  let g = Cache.gc t in
  Alcotest.(check int) "both survivors kept" 2 g.Cache.kept;
  Alcotest.(check int) "quarantine purged" 1 g.Cache.purged_quarantine;
  Alcotest.(check int) "orphan tmp purged" 1 g.Cache.purged_tmp;
  Alcotest.(check int) "nothing evicted without a budget" 0 g.Cache.evicted;
  let g2 = Cache.gc ~max_bytes:0 t in
  Alcotest.(check int) "budget 0 evicts everything" 2 g2.Cache.evicted;
  Alcotest.(check int) "store empty" 0 (Cache.stat t).Cache.entries;
  rm_rf dir

let test_log_survives_torn_tail () =
  let dir = fresh_dir "tornlog" in
  let t = Cache.open_dir dir in
  Cache.log_run t ~label:"whole";
  let log = Filename.concat dir "cache.log" in
  let oc = open_out_gen [ Open_append ] 0o644 log in
  output_string oc "run\tlabel=torn%Q";
  close_out oc;
  Cache.log_run t ~label:"after the tear";
  Alcotest.(check int) "both whole runs counted" 2 (Cache.stat t).Cache.runs;
  rm_rf dir

(* ---- cold vs warm byte identity through the real harnesses ---- *)

let prop_chaos_warm_run_byte_identical =
  (* arbitrary (kernel, plan) cells via the campaign's own seeded
     sampler: a cold campaign fills the cache, a warm one must journal
     exactly the same bytes without recomputing *)
  QCheck.Test.make ~count:4 ~name:"chaos: warm journal == cold journal"
    QCheck.small_nat (fun seed ->
      let dir = fresh_dir "chaoswarm" in
      let journal n = Filename.concat dir n in
      let cfg n =
        {
          Campaign.default_config with
          Campaign.seed;
          cells = 2;
          journal = Some (journal n);
          cache = Some (Filename.concat dir "cache");
        }
      in
      let run n =
        match Campaign.run (cfg n) with
        | Ok t -> t
        | Error e -> QCheck.Test.fail_reportf "campaign: %s" e
      in
      let cold = run "cold.journal" in
      let warm = run "warm.journal" in
      let identical =
        read_file (journal "cold.journal") = read_file (journal "warm.journal")
      in
      let warm_counters =
        match warm.Campaign.cache_counters with
        | Some c -> c.Cache.hits = 2 && c.Cache.misses = 0
        | None -> false
      in
      let cold_counters =
        match cold.Campaign.cache_counters with
        | Some c -> c.Cache.hits = 0 && c.Cache.misses = 2
        | None -> false
      in
      rm_rf dir;
      identical && warm_counters && cold_counters)

let prop_fuzz_warm_run_byte_identical =
  QCheck.Test.make ~count:4 ~name:"fuzz: warm summary == cold summary"
    QCheck.small_nat (fun seed ->
      let dir = fresh_dir "fuzzwarm" in
      let cfg =
        {
          Driver.default_config with
          Driver.seed;
          count = 4;
          sim = false;
          fault_plans = [];
          cache = Some (Filename.concat dir "cache");
        }
      in
      let digest (s : Driver.summary) =
        ( s.Driver.cases_run,
          s.Driver.by_label,
          s.Driver.checks_passed,
          s.Driver.checks_skipped,
          List.length s.Driver.violations )
      in
      let cold = Driver.run cfg in
      let warm = Driver.run cfg in
      let warm_hits =
        match warm.Driver.cache_counters with
        | Some c -> c.Cache.hits = 4 && c.Cache.misses = 0
        | None -> false
      in
      rm_rf dir;
      digest cold = digest warm && warm_hits)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_corruption_never_served;
      prop_keys_are_identities;
      prop_chaos_warm_run_byte_identical;
      prop_fuzz_warm_run_byte_identical;
    ]

let () =
  Alcotest.run "cache"
    [
      ( "sink",
        [
          Alcotest.test_case "counts boundaries, transparent when disarmed"
            `Quick test_sink_counts_and_disarmed_is_transparent;
          Alcotest.test_case "before/torn/after semantics and the dead latch"
            `Quick test_sink_modes;
          Alcotest.test_case "rename is a boundary" `Quick
            test_sink_rename_boundary;
        ] );
      ( "store",
        [
          Alcotest.test_case "store/find round trip, first writer wins"
            `Quick test_store_find_round_trip;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "memo: replay, undecodable entry recomputed"
            `Quick test_memo;
        ] );
      ( "corruption",
        [
          Alcotest.test_case
            "truncation and bit-flips at every offset quarantined" `Quick
            test_corruption_at_every_offset;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "stat/verify/gc" `Quick test_stat_verify_gc;
          Alcotest.test_case "run log survives a torn tail" `Quick
            test_log_survives_torn_tail;
        ] );
      ("properties", qcheck_tests);
    ]
