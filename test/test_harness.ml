(* Tests for the run supervisor stack: the generic journal codec, watchdog
   budgets, checkpoint/resume byte-identity, graceful degradation to
   analytic estimates, and the bound oracle. *)

open Macs_util
open Convex_machine
open Convex_vpsim
open Convex_harness

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp_journal name = Filename.temp_file ("macs_" ^ name) ".journal"

(* ---- generic journal ---- *)

let printable_pair =
  QCheck.(
    pair
      (string_gen_of_size Gen.(int_range 0 20) Gen.char)
      (string_gen_of_size Gen.(int_range 0 20) Gen.char))

let prop_record_roundtrip =
  QCheck.Test.make ~count:500 ~name:"journal records round-trip any bytes"
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_range 1 10) Gen.char)
        (list_of_size Gen.(int_range 0 6) printable_pair))
    (fun (tag, fields) ->
      let r = { Journal.tag; fields } in
      match Journal.decode (Journal.encode r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let prop_float_roundtrip =
  QCheck.Test.make ~count:500 ~name:"put_float/get_float is byte-exact"
    QCheck.float (fun f ->
      match Journal.get_float (Journal.put_float f) with
      | Some g -> Int64.bits_of_float g = Int64.bits_of_float f
      | None -> false)

(* [Journal.recover] as the list of records a caller resumes from *)
let load_records ~path ~format =
  match Journal.recover ~path ~format with
  | Ok (Journal.Intact rows) -> Ok rows
  | Ok Journal.Fresh -> Ok []
  | Ok (Journal.Damaged e) | Error e -> Error e

let test_journal_torn_line () =
  let path = tmp_journal "torn" in
  Journal.create ~path ~format:"t"
    [ { Journal.tag = "row"; fields = [ ("k", "1") ] } ];
  (* simulate a writer killed mid-record: garbage final line, no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "row\tk=2\tgar%ZZbage";
  close_out oc;
  (match load_records ~path ~format:"t" with
  | Ok rows -> Alcotest.(check int) "torn line dropped" 1 (List.length rows)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_journal_rejects_wrong_format () =
  let path = tmp_journal "fmt" in
  Journal.create ~path ~format:"schema-a" [];
  (match Journal.recover ~path ~format:"schema-b" with
  | Ok (Journal.Damaged _) -> ()
  | _ -> Alcotest.fail "format mismatch must fail the load");
  Sys.remove path

(* A torn tail (here an undecodable complete line, then a partial one)
   is cut off in place: the file keeps its inode, and its bytes are the
   kept prefix. *)
let test_journal_repair_in_place () =
  let path = tmp_journal "inplace" in
  let rows =
    List.init 3 (fun i ->
        { Journal.tag = "row"; fields = [ ("k", string_of_int i) ] })
  in
  Journal.create ~path ~format:"t" rows;
  let prefix = read_file path in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "row\tk=%4\nro";
  close_out oc;
  let inode () = (Unix.stat path).Unix.st_ino in
  let before = inode () in
  (match Journal.recover ~path ~format:"t" with
  | Ok (Journal.Intact got) ->
      Alcotest.(check bool) "the complete records" true (got = rows)
  | _ -> Alcotest.fail "a torn tail must recover as intact");
  Alcotest.(check int) "same inode" before (inode ());
  Alcotest.(check string) "the prefix" prefix (read_file path);
  Sys.remove path

(* ---- reference model ----

   The journal codec and recovery as they were before the single-scan
   decoder and [Journal.recover]: split on tabs, then on a field's
   first '=', then unescape each part; recovery as [inspect], then
   [repair], then [load], three reads of the file. *)

module Ref = struct
  let ( let* ) = Result.bind

  let unescape s =
    if not (String.contains s '%') then Ok s
    else begin
      let buf = Buffer.create (String.length s) in
      let n = String.length s in
      let rec go i =
        if i >= n then Ok (Buffer.contents buf)
        else if s.[i] = '%' then
          if i + 2 >= n then Error "truncated %-escape"
          else
            match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
            | Some code ->
                Buffer.add_char buf (Char.chr code);
                go (i + 3)
            | None -> Error (Printf.sprintf "bad %%-escape %S" (String.sub s i 3))
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
      in
      go 0
    end

  let decode line =
    match String.split_on_char '\t' line with
    | [] | [ "" ] -> Error "empty journal line"
    | tag :: rest ->
        let* tag = unescape tag in
        let* fields =
          List.fold_left
            (fun acc tok ->
              let* acc = acc in
              match String.index_opt tok '=' with
              | None -> Error (Printf.sprintf "field %S has no '='" tok)
              | Some i ->
                  let* k = unescape (String.sub tok 0 i) in
                  let* v =
                    unescape (String.sub tok (i + 1) (String.length tok - i - 1))
                  in
                  Ok ((k, v) :: acc))
            (Ok []) rest
        in
        Ok { Journal.tag; fields = List.rev fields }

  let check_header ~format (r : Journal.record) =
    if r.tag <> "macs-journal" then
      Error (Printf.sprintf "not a journal: leading tag %S" r.tag)
    else
      let* v = Journal.field_err r "version" in
      let* f = Journal.field_err r "format" in
      if v <> string_of_int Journal.version then
        Error
          (Printf.sprintf "unsupported journal version %s (want %d)" v
             Journal.version)
      else if f <> format then
        Error (Printf.sprintf "journal format %S, expected %S" f format)
      else Ok ()

  type inspection = Fresh | Intact | Damaged of string

  let inspect ~path ~format =
    if not (Sys.file_exists path) then Fresh
    else
      let s = read_file path in
      match String.index_opt s '\n' with
      | None -> Fresh
      | Some nl -> (
          match decode (String.sub s 0 nl) with
          | Error e ->
              Damaged (Printf.sprintf "journal %s: undecodable first line: %s" path e)
          | Ok hd -> (
              match check_header ~format hd with
              | Error e -> Damaged (Printf.sprintf "journal %s: %s" path e)
              | Ok () ->
                  if String.index_from_opt s (nl + 1) '\n' = None then Fresh
                  else Intact))

  let repair ~path ~format =
    let s = read_file path in
    let n = String.length s in
    let rec prefix_end start =
      if start >= n then start
      else
        match String.index_from_opt s start '\n' with
        | None -> start
        | Some nl -> (
            match decode (String.sub s start (nl - start)) with
            | Ok _ -> prefix_end (nl + 1)
            | Error _ -> start)
    in
    let rec tail_has_good start =
      if start >= n then false
      else
        match String.index_from_opt s start '\n' with
        | None -> false
        | Some nl -> (
            match decode (String.sub s start (nl - start)) with
            | Ok _ -> true
            | Error _ -> tail_has_good (nl + 1))
    in
    if n = 0 then Error (Printf.sprintf "journal %s is empty" path)
    else
      match String.index_opt s '\n' with
      | None -> Error (Printf.sprintf "journal %s has no complete header" path)
      | Some nl -> (
          match decode (String.sub s 0 nl) with
          | Error e -> Error (Printf.sprintf "journal %s: bad header: %s" path e)
          | Ok hd ->
              let* () = check_header ~format hd in
              let keep = prefix_end 0 in
              if keep >= n || tail_has_good keep then Ok ()
              else begin
                let oc = open_out_bin path in
                output_string oc (String.sub s 0 keep);
                close_out oc;
                Ok ()
              end)

  let load ~path ~format =
    let lines = String.split_on_char '\n' (read_file path) in
    (* [input_line] yields no empty line after a final newline *)
    let lines =
      match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
    in
    match lines with
    | [] -> Error (Printf.sprintf "journal %s is empty" path)
    | first :: rest ->
        let* hd = decode first in
        let* () = check_header ~format hd in
        let rec decode_rows acc = function
          | [] -> Ok (List.rev acc)
          | [ last ] -> (
              match decode last with
              | Ok r -> Ok (List.rev (r :: acc))
              | Error _ -> Ok (List.rev acc))
          | line :: rest -> (
              match decode line with
              | Ok r -> decode_rows (r :: acc) rest
              | Error e -> Error (Printf.sprintf "corrupt journal line: %s" e))
        in
        decode_rows [] rest

  (* the three calls a resume made, as [Journal.recover]'s outcome *)
  let recover ~path ~format =
    match inspect ~path ~format with
    | Fresh -> Ok Journal.Fresh
    | Damaged why -> Ok (Journal.Damaged why)
    | Intact -> (
        let* () = repair ~path ~format in
        match load ~path ~format with
        | Ok rows -> Ok (Journal.Intact rows)
        | Error e -> Error e)
end

(* lines over the bytes that matter to the codec: escapes (hex, non-hex,
   '_', truncated), '=', tabs, newlines, and empty tokens *)
let codec_line_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "%"; "="; "\t"; "\n"; "%4"; "%0a"; "%3D"; "%F_"; "%_F"; "%ZZ"; "%%" ];
        map (String.make 1) (oneofl [ '0'; '9'; 'a'; 'F'; 'g'; '_'; 'x'; '-'; ' ' ]);
        (* plain runs, so an escape, '=' or tab lands at every offset of
           the decoder's eight-byte words *)
        map (fun n -> String.make n 'q') (int_range 1 20);
        map
          (fun (tag, fields) -> Journal.encode { Journal.tag; fields })
          (pair (string_size ~gen:char (int_range 0 4))
             (small_list
                (pair (string_size ~gen:char (int_range 0 4))
                   (string_size ~gen:char (int_range 0 4)))));
      ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let prop_decode_matches_reference =
  QCheck.Test.make ~count:3000 ~name:"single-scan decode equals the split decoder"
    (QCheck.make ~print:(Printf.sprintf "%S") codec_line_gen)
    (fun line -> Journal.decode line = Ref.decode line)

(* Journals as a crash can leave them: a header (matching, foreign, or
   undecodable), records with undecodable lines anywhere among them, the
   whole cut at any byte (a torn create or a torn tail), or no file. *)
let journal_gen =
  let open QCheck.Gen in
  let good =
    map
      (fun (k, v) -> Journal.encode { Journal.tag = "row"; fields = [ (k, v) ] })
      (pair (string_size ~gen:printable (int_range 0 3))
         (string_size ~gen:char (int_range 0 20)))
  in
  let bad = oneofl [ ""; "row\tnoeq"; "row\tk=%Z1"; "%"; "r%4" ] in
  let header =
    frequency
      [
        (6, return "macs-journal\tversion=1\tformat=t");
        (1, return "macs-journal\tversion=1\tformat=other");
        (1, return "macs-journal\tversion=2\tformat=t");
        (1, oneofl [ "row\tk=1"; "junk%"; "" ]);
      ]
  in
  let* missing = frequency [ (1, return true); (12, return false) ] in
  let* hd = header in
  let* lines = list_size (int_range 0 6) (frequency [ (4, good); (1, bad) ]) in
  let full = String.concat "" (List.map (fun l -> l ^ "\n") (hd :: lines)) in
  let* cut = frequency [ (2, return None); (1, map Option.some (int_range 0 (String.length full))) ] in
  let* trail = frequency [ (3, return ""); (1, good); (1, bad) ] in
  let body =
    match cut with
    | Some k -> String.sub full 0 k
    | None -> full ^ trail
  in
  return (if missing then None else Some body)

let prop_recover_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"recover equals inspect, repair and load"
    (QCheck.make
       ~print:(function None -> "missing" | Some s -> Printf.sprintf "%S" s)
       journal_gen)
    (fun body ->
      let path = tmp_journal "recover" in
      let lay () =
        match body with
        | None -> (try Sys.remove path with Sys_error _ -> ())
        | Some s ->
            let oc = open_out_bin path in
            output_string oc s;
            close_out oc
      in
      let after () = if Sys.file_exists path then Some (read_file path) else None in
      lay ();
      let want = Ref.recover ~path ~format:"t" in
      let want_bytes = after () in
      lay ();
      let got = Journal.recover ~path ~format:"t" in
      let got_bytes = after () in
      (try Sys.remove path with Sys_error _ -> ());
      got = want && got_bytes = want_bytes)

(* ---- suite journal row codec ---- *)

let sample_perf =
  {
    Macs_report.Suite.cpl = 4.217;
    cpf = 0.843;
    mflops = 37.94;
    checksum = 505.05;
    checksum_ok = true;
  }

let sample_errors =
  [
    Macs_error.livelock ~site:"Sim.run" ~cycle:100 ~pending:3 ~word:7 ();
    Macs_error.livelock ~site:"Sim.run" ~cycle:100 ~pending:3 ();
    Macs_error.stall_out ~site:"Sim.run" ~cycle:9 ~pending:1 ~plan:"dead-bank";
    Macs_error.dependence_cycle ~site:"Schedule.pack" ~scheduled:2 ~total:5;
    Macs_error.parse_failure ~site:"Asm.parse" "odd\ttab and % and =";
    Macs_error.budget_exceeded ~site:"Supervisor(lfk1)"
      ~resource:"simulated-cycles" ~budget:500.0 ~spent:547.0;
    Macs_error.oracle_violation ~site:"Oracle(lfk1)" ~invariant:"MAC<=MACS"
      "detail text";
  ]

let roundtrip_row (row : Macs_report.Suite.row) =
  match
    Macs_report.Suite_journal.row_of_record
      (Macs_report.Suite_journal.record_of_row row)
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "row did not round-trip: %s" e

let test_suite_journal_measured_row () =
  let row =
    {
      Macs_report.Suite.kernel = Lfk.Kernels.find 1;
      mode = Job.Vector;
      outcome = Ok sample_perf;
      source = Macs_report.Suite.Measured;
    }
  in
  Alcotest.(check bool) "identical" true (roundtrip_row row = row)

let test_suite_journal_diagnostic_rows () =
  List.iter
    (fun e ->
      let failed =
        {
          Macs_report.Suite.kernel = Lfk.Kernels.find 5;
          mode = Job.Scalar;
          outcome = Error e;
          source = Macs_report.Suite.Measured;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "failed row with %s" (Macs_error.kind e))
        true
        (roundtrip_row failed = failed);
      let estimated =
        {
          Macs_report.Suite.kernel = Lfk.Kernels.find 2;
          mode = Job.Vector;
          outcome =
            Ok
              {
                sample_perf with
                Macs_report.Suite.checksum = Float.nan;
                checksum_ok = false;
              };
          source = Macs_report.Suite.Estimated e;
        }
      in
      let rt = roundtrip_row estimated in
      (* nan <> nan, so compare the journaled encodings instead *)
      Alcotest.(check bool)
        (Printf.sprintf "estimated row with %s" (Macs_error.kind e))
        true
        (Macs_report.Suite_journal.record_of_row rt
        = Macs_report.Suite_journal.record_of_row estimated))
    sample_errors

(* ---- clock and budgets ---- *)

let test_clock_monotonic () =
  let a = Clock.now () in
  let b = Clock.now () in
  Alcotest.(check bool) "nondecreasing" true (b >= a);
  Alcotest.(check bool) "elapsed nonnegative" true (Clock.elapsed ~since:a >= 0.0)

let job_of lfk =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find lfk) in
  c.Fcc.Compiler.job

let test_budget_watchdog_trips_sim () =
  let wd =
    match Budget.watchdog ~site:"test" (Budget.make ~max_cycles:100.0 ()) with
    | Some w -> w
    | None -> Alcotest.fail "non-empty budget must yield a watchdog"
  in
  match Sim.run ~watchdog:wd (job_of 1) with
  | Error (Macs_error.Budget_exceeded { resource; budget; _ }) ->
      Alcotest.(check string) "resource" "simulated-cycles" resource;
      Alcotest.(check (float 0.0)) "budget recorded" 100.0 budget
  | Error e -> Alcotest.failf "wrong error: %s" (Macs_error.to_string e)
  | Ok _ -> Alcotest.fail "100-cycle budget must cancel LFK1"

let test_budget_under_cap_is_invisible () =
  let free = Sim.run_exn (job_of 1) in
  let wd =
    Option.get
      (Budget.watchdog ~site:"test" (Budget.make ~max_cycles:1e12 ()))
  in
  let capped = Sim.run_exn ~watchdog:wd (job_of 1) in
  Alcotest.(check (float 0.0))
    "same cycles" free.Sim.stats.Sim.cycles capped.Sim.stats.Sim.cycles

let test_budget_wall_clock_trips () =
  let wd =
    Option.get
      (Budget.watchdog ~site:"test" (Budget.make ~max_wall_s:0.0 ()))
  in
  match Sim.run ~watchdog:wd (job_of 1) with
  | Error (Macs_error.Budget_exceeded { resource; _ }) ->
      Alcotest.(check string) "resource" "wall-seconds" resource
  | Error e -> Alcotest.failf "wrong error: %s" (Macs_error.to_string e)
  | Ok _ -> Alcotest.fail "zero wall budget must cancel the run"

let test_empty_budget_has_no_watchdog () =
  Alcotest.(check bool) "none" true (Budget.watchdog ~site:"x" Budget.none = None)

(* ---- graceful degradation ---- *)

let test_estimate_levels () =
  let v = Macs.Estimate.of_kernel (Lfk.Kernels.find 1) in
  Alcotest.(check string) "vector kernels estimate at MACS level" "MACS"
    v.Macs.Estimate.level;
  Alcotest.(check bool) "positive cpl" true (v.Macs.Estimate.cpl > 0.0);
  let s = Macs.Estimate.of_kernel (Lfk.Kernels.find 5) in
  Alcotest.(check string) "scalar kernels estimate at scalar level" "scalar"
    s.Macs.Estimate.level;
  Alcotest.(check bool) "positive mflops" true (s.Macs.Estimate.mflops > 0.0)

let test_supervisor_budget_degrades_not_aborts () =
  (* acceptance: an over-budget kernel yields an estimated row tagged
     Budget_exceeded — never an abort, never a missing row *)
  match
    Supervisor.run ~budget:(Budget.make ~max_cycles:500.0 ()) ()
  with
  | Error e -> Alcotest.failf "supervisor errored: %s" e
  | Ok { suite; stats; _ } ->
      Alcotest.(check int) "all rows present" 12 (List.length suite.rows);
      Alcotest.(check int) "all estimated" 12 stats.Supervisor.estimated;
      Alcotest.(check int) "none failed" 0
        (List.length (Macs_report.Suite.failed_rows suite));
      List.iter
        (fun ((_ : Macs_report.Suite.row), e) ->
          Alcotest.(check string) "tagged budget-exceeded" "budget-exceeded"
            (Macs_error.kind e))
        (Macs_report.Suite.estimated_rows suite);
      Alcotest.(check (float 0.0))
        "estimates excluded from measured hmean" 0.0
        suite.Macs_report.Suite.overall_hmean_mflops

let run_supervised ?budget ?resume ?retry_failed path =
  match Supervisor.run ?budget ~journal:path ?resume ?retry_failed () with
  | Ok o -> o
  | Error e -> Alcotest.failf "supervisor errored: %s" e

let test_supervisor_resume_byte_identical () =
  let full = tmp_journal "full" and part = tmp_journal "part" in
  ignore (run_supervised full);
  (* keep header + config + the first 4 rows: a run killed after kernel 4 *)
  let lines = String.split_on_char '\n' (read_file full) in
  let oc = open_out_bin part in
  List.iteri
    (fun i l -> if i < 6 then (output_string oc l; output_char oc '\n'))
    lines;
  close_out oc;
  let o = run_supervised ~resume:true part in
  Alcotest.(check int) "four rows replayed" 4 o.Supervisor.stats.Supervisor.resumed;
  Alcotest.(check int) "eight rows run" 8 o.Supervisor.stats.Supervisor.executed;
  Alcotest.(check string) "journal byte-identical to uninterrupted run"
    (read_file full) (read_file part);
  Sys.remove full;
  Sys.remove part

let test_supervisor_resume_after_torn_write () =
  (* a writer killed mid-record leaves a torn unterminated tail; resume
     must truncate it and append cleanly, not concatenate onto it *)
  let full = tmp_journal "tornfull" and part = tmp_journal "tornpart" in
  ignore (run_supervised full);
  let lines = String.split_on_char '\n' (read_file full) in
  let oc = open_out_bin part in
  List.iteri
    (fun i l -> if i < 6 then (output_string oc l; output_char oc '\n'))
    lines;
  output_string oc "row\tlfk=5\tmode=sca";
  close_out oc;
  let o = run_supervised ~resume:true part in
  Alcotest.(check int) "four complete rows replayed" 4
    o.Supervisor.stats.Supervisor.resumed;
  Alcotest.(check string) "journal healed to the uninterrupted bytes"
    (read_file full) (read_file part);
  Sys.remove full;
  Sys.remove part

let test_supervisor_retry_failed () =
  let path = tmp_journal "retry" in
  let crippled =
    run_supervised ~budget:(Budget.make ~max_cycles:500.0 ()) path
  in
  Alcotest.(check int) "all estimated under the budget" 12
    crippled.Supervisor.stats.Supervisor.estimated;
  let healed = run_supervised ~retry_failed:true path in
  Alcotest.(check int) "no measured row replayed" 0
    healed.Supervisor.stats.Supervisor.resumed;
  Alcotest.(check int) "diagnostic rows re-run" 12
    healed.Supervisor.stats.Supervisor.executed;
  Alcotest.(check int) "all measured now" 0
    healed.Supervisor.stats.Supervisor.estimated;
  Alcotest.(check bool) "measured hmean recovered" true
    (healed.Supervisor.suite.Macs_report.Suite.overall_hmean_mflops > 0.0);
  (* and the rewritten journal replays clean *)
  let again = run_supervised ~resume:true path in
  Alcotest.(check int) "everything replayed" 12
    again.Supervisor.stats.Supervisor.resumed;
  Sys.remove path

let test_supervisor_journals_every_attempt () =
  (* satellite fix: a kernel that exhausts its retries must journal one
     "attempt" record per consumed retry, diagnostics included, and the
     journal must still replay byte-identically afterwards *)
  let path = tmp_journal "attempts" in
  let faults = Result.get_ok (Convex_fault.Fault.parse "dead-bank") in
  (match Supervisor.run ~faults ~journal:path () with
  | Error e -> Alcotest.failf "supervisor errored: %s" e
  | Ok o ->
      Alcotest.(check int) "all rows present" 12
        (List.length o.Supervisor.suite.Macs_report.Suite.rows));
  let lines = String.split_on_char '\n' (read_file path) in
  let attempts =
    List.filter
      (fun l -> String.length l >= 8 && String.sub l 0 8 = "attempt\t")
      lines
  in
  Alcotest.(check bool) "attempt records journaled" true (attempts <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "attempt carries its diagnostic" true
        (String.length l > 0
        && (let has needle =
              let nl = String.length needle and ll = String.length l in
              let rec go i =
                i + nl <= ll && (String.sub l i nl = needle || go (i + 1))
              in
              go 0
            in
            has "guard_scale=" && has "err=")))
    attempts;
  let before = read_file path in
  (match Supervisor.run ~faults ~journal:path ~resume:true () with
  | Error e -> Alcotest.failf "resume errored: %s" e
  | Ok o ->
      Alcotest.(check int) "every cell replayed" 12
        o.Supervisor.stats.Supervisor.resumed);
  Alcotest.(check string) "replay leaves attempt records untouched" before
    (read_file path);
  Sys.remove path

let test_supervisor_parallel_byte_identical () =
  (* --jobs 4 merged journal must match the --jobs 1 bytes; a cycle
     budget keeps every cell deterministic and fast *)
  let j1 = tmp_journal "jobs1" and j4 = tmp_journal "jobs4" in
  let budget = Budget.make ~max_cycles:500.0 () in
  let run path jobs =
    match Supervisor.run ~budget ~journal:path ~jobs () with
    | Ok o -> o
    | Error e -> Alcotest.failf "supervisor errored: %s" e
  in
  let o1 = run j1 1 in
  let o4 = run j4 4 in
  Alcotest.(check string) "journals byte-identical" (read_file j1)
    (read_file j4);
  Alcotest.(check bool) "renders identical" true
    (Macs_report.Suite.render o1.Supervisor.suite
    = Macs_report.Suite.render o4.Supervisor.suite);
  Alcotest.(check (list (pair int string))) "no shards left behind" []
    (Journal.shards ~path:j4);
  Sys.remove j1;
  Sys.remove j4

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let test_supervisor_warm_cache_byte_identical () =
  (* a warm run against the same cache must journal the same bytes
     without re-measuring: every cell a hit, none simulated *)
  let j1 = tmp_journal "cold" and j2 = tmp_journal "warm" in
  let cache =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "macs_sup_cache_%d" (Unix.getpid ()))
  in
  rm_rf cache;
  let budget = Budget.make ~max_cycles:500.0 () in
  let run path =
    match Supervisor.run ~budget ~journal:path ~cache () with
    | Ok o -> o
    | Error e -> Alcotest.failf "supervisor errored: %s" e
  in
  let cold = run j1 in
  let warm = run j2 in
  Alcotest.(check string) "warm journal byte-identical to cold"
    (read_file j1) (read_file j2);
  let counters o =
    match o.Supervisor.cache_counters with
    | Some c -> Convex_cache.Cache.(c.hits, c.misses)
    | None -> Alcotest.fail "cache counters missing"
  in
  Alcotest.(check (pair int int)) "cold run all misses" (0, 12)
    (counters cold);
  Alcotest.(check (pair int int)) "warm run all hits" (12, 0)
    (counters warm);
  Alcotest.(check bool) "renders identical" true
    (Macs_report.Suite.render cold.Supervisor.suite
    = Macs_report.Suite.render warm.Supervisor.suite);
  rm_rf cache;
  Sys.remove j1;
  Sys.remove j2

let test_supervisor_resume_fresh_journal () =
  (* a create interrupted before its single write completes leaves a
     header prefix with no newline; resume must treat it as fresh, not
     refuse it as corrupt *)
  let full = tmp_journal "freshfull" and part = tmp_journal "freshpart" in
  let budget = Budget.make ~max_cycles:500.0 () in
  (match Supervisor.run ~budget ~journal:full () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "supervisor errored: %s" e);
  let oc = open_out_bin part in
  output_string oc "macs-jour";
  close_out oc;
  (match Supervisor.run ~budget ~journal:part ~resume:true () with
  | Ok o ->
      Alcotest.(check int) "nothing replayed" 0
        o.Supervisor.stats.Supervisor.resumed;
      Alcotest.(check int) "everything run" 12
        o.Supervisor.stats.Supervisor.executed
  | Error e -> Alcotest.failf "resume refused a fresh journal: %s" e);
  Alcotest.(check string) "journal rebuilt to the uninterrupted bytes"
    (read_file full) (read_file part);
  Sys.remove full;
  Sys.remove part

let test_supervisor_refuses_config_mismatch () =
  let path = tmp_journal "mismatch" in
  ignore (run_supervised path);
  (match
     Supervisor.run ~machine:Machine.ideal ~journal:path ~resume:true ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resume under a different machine must refuse");
  Sys.remove path

(* c240 with 64 banks keeps c240's display name: only the full machine
   spec tells the two apart *)
let banks64 () =
  match Convex_dsl.Machine_dsl.parse "c240;banks=64" with
  | Ok m -> m
  | Error e -> Alcotest.fail (Macs_error.to_string e)

let test_supervisor_cache_keys_whole_machine () =
  let cache =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "macs_sup_machine_%d" (Unix.getpid ()))
  in
  rm_rf cache;
  let run ?cache machine =
    match Supervisor.run ~machine ?cache () with
    | Ok o -> o
    | Error e -> Alcotest.failf "supervisor errored: %s" e
  in
  ignore (run ~cache Machine.c240);
  let warm = run ~cache (banks64 ()) in
  let plain = run (banks64 ()) in
  (match warm.Supervisor.cache_counters with
  | Some c ->
      Alcotest.(check int) "no c240 entry served" 0 c.Convex_cache.Cache.hits
  | None -> Alcotest.fail "cache counters missing");
  let rows o =
    List.map
      (fun r -> Journal.encode (Macs_report.Suite_journal.record_of_row r))
      o.Supervisor.suite.Macs_report.Suite.rows
  in
  Alcotest.(check (list string)) "rows equal a cache-less run" (rows plain)
    (rows warm);
  rm_rf cache

let test_supervisor_resume_refuses_other_spec () =
  let path = tmp_journal "spec" in
  let budget = Budget.make ~max_cycles:500.0 () in
  (match Supervisor.run ~machine:(banks64 ()) ~budget ~journal:path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "supervisor errored: %s" e);
  (match
     Supervisor.run ~machine:Machine.c240 ~budget ~journal:path ~resume:true ()
   with
  | Ok _ -> Alcotest.fail "resume under c240 replayed a banks=64 journal"
  | Error msg ->
      let has needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length msg
          && (String.sub msg i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "the machine mismatch is named" true
        (has "different configuration (machine ");
      Alcotest.(check bool) "the journal's clause is named" true
        (has "banks=64");
      Alcotest.(check bool) "the requested clause is named" true
        (has "banks=32");
      Alcotest.(check bool) "unchanged clauses are left out" false
        (has "t.ld="));
  Sys.remove path

let test_supervisor_shard_resume_loses_nothing () =
  (* the wreckage of a parallel suite killed mid-run: the main journal
     holds the first cells, a shard holds the next ones out of order,
     and the last never ran.  Resume must merge the shard, replay every
     landed cell, run only the missing one, and converge on the
     uninterrupted bytes.  Under dead-bank every cell journals a retry
     attempt before its row, so each block spans two records. *)
  let full = tmp_journal "shardfull" and part = tmp_journal "shardpart" in
  let faults = Result.get_ok (Convex_fault.Fault.parse "dead-bank") in
  let run ?resume ?jobs path =
    match Supervisor.run ~faults ~journal:path ?resume ?jobs () with
    | Ok o -> o
    | Error e -> Alcotest.failf "supervisor errored: %s" e
  in
  ignore (run full);
  let format = Macs_report.Suite_journal.format in
  let config, body =
    match load_records ~path:full ~format with
    | Ok (c :: rest) -> (c, rest)
    | Ok [] -> Alcotest.fail "journal holds no config"
    | Error e -> Alcotest.failf "journal load: %s" e
  in
  (* one block per kernel, each closed by its row record *)
  let blocks =
    let rec go pending acc = function
      | [] -> List.rev acc
      | r :: rest when r.Journal.tag = "row" ->
          go [] (List.rev (r :: pending) :: acc) rest
      | r :: rest -> go (r :: pending) acc rest
    in
    Array.of_list (go [] [] body)
  in
  Alcotest.(check int) "twelve cells" 12 (Array.length blocks);
  Journal.create ~path:part ~format
    (config :: List.concat (Array.to_list (Array.sub blocks 0 5)));
  Journal.shard_start ~path:part ~shard:1 ~format ~config;
  for i = 10 downto 5 do
    List.iteri
      (fun seq r -> Journal.shard_append ~path:part ~shard:1 ~index:i ~seq r)
      blocks.(i)
  done;
  let o = run ~resume:true ~jobs:4 part in
  Alcotest.(check int) "main + shard cells replayed" 11
    o.Supervisor.stats.Supervisor.resumed;
  Alcotest.(check int) "only the missing cell runs" 1
    o.Supervisor.stats.Supervisor.executed;
  Alcotest.(check string) "journal converges on the uninterrupted bytes"
    (read_file full) (read_file part);
  Alcotest.(check (list (pair int string))) "shards consumed" []
    (Journal.shards ~path:part);
  Sys.remove full;
  Sys.remove part

let test_supervisor_resume_refuses_stray_poison () =
  (* a poison record for a cell the suite does not have is a journal
     from some other run: refuse it rather than drop it *)
  let path = tmp_journal "poison99" in
  let budget = Budget.make ~max_cycles:500.0 () in
  (match Supervisor.run ~budget ~journal:path () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "supervisor errored: %s" e);
  Journal.append ~path
    (Convex_exec.Executor.poison_record
       {
         Convex_exec.Executor.index = 99;
         attempts = 1;
         error = "stray";
         context = "LFK99";
       });
  (match Supervisor.run ~budget ~journal:path ~resume:true () with
  | Ok _ -> Alcotest.fail "resume accepted a poison record for cell 99"
  | Error e ->
      let needle = "cell 99" in
      let n = String.length needle in
      let rec named i =
        i + n <= String.length e && (String.sub e i n = needle || named (i + 1))
      in
      Alcotest.(check bool) "the stray cell is named" true (named 0));
  Sys.remove path

(* ---- bound oracle ---- *)

let test_oracle_c240_clean () =
  let r = Macs.Oracle.validate () in
  Alcotest.(check int) "ten kernels checked" 10 r.Macs.Oracle.checked;
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun (v : Macs.Oracle.violation) -> v.Macs.Oracle.invariant)
       r.Macs.Oracle.violations)

let test_oracle_broken_hierarchy_caught () =
  let r =
    Macs.Oracle.validate ~machine:(Machine.broken_hierarchy Machine.c240) ()
  in
  Alcotest.(check bool) "violations found" true
    (r.Macs.Oracle.violations <> []);
  Alcotest.(check bool) "the broken link is named" true
    (List.exists
       (fun (v : Macs.Oracle.violation) ->
         v.Macs.Oracle.invariant = "MAC<=MACS")
       r.Macs.Oracle.violations)

let test_oracle_faulted_probe () =
  let plan spec =
    match Convex_fault.Fault.parse spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  (* a plan that only slows things can never trip faulted-never-faster,
     and a stalled probe is a diagnosed outcome, not a violation *)
  Alcotest.(check int) "degraded banks pass" 0
    (List.length (Macs.Oracle.check_faulted_never_faster (plan "bank-degraded")));
  Alcotest.(check int) "dead bank stalls, no violation" 0
    (List.length (Macs.Oracle.check_faulted_never_faster (plan "dead-bank")))

let test_oracle_check_row_flags_impossible_speed () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let vs =
    Macs.Oracle.check_row ~machine:Machine.c240 c ~measured_cpl:0.01
  in
  Alcotest.(check bool) "a sub-bound measurement is flagged" true (vs <> [])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_record_roundtrip;
      prop_float_roundtrip;
      prop_decode_matches_reference;
      prop_recover_matches_reference;
    ]

let () =
  Alcotest.run "harness"
    [
      ("journal-properties", qcheck_tests);
      ( "journal",
        [
          Alcotest.test_case "torn final line dropped" `Quick
            test_journal_torn_line;
          Alcotest.test_case "format mismatch rejected" `Quick
            test_journal_rejects_wrong_format;
          Alcotest.test_case "torn tail cut in place" `Quick
            test_journal_repair_in_place;
          Alcotest.test_case "measured row codec" `Quick
            test_suite_journal_measured_row;
          Alcotest.test_case "diagnostic row codecs" `Quick
            test_suite_journal_diagnostic_rows;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "cycle budget trips sim" `Quick
            test_budget_watchdog_trips_sim;
          Alcotest.test_case "under cap invisible" `Quick
            test_budget_under_cap_is_invisible;
          Alcotest.test_case "wall budget trips" `Quick
            test_budget_wall_clock_trips;
          Alcotest.test_case "empty budget" `Quick
            test_empty_budget_has_no_watchdog;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "estimate levels" `Quick test_estimate_levels;
          Alcotest.test_case "over budget degrades to estimates" `Quick
            test_supervisor_budget_degrades_not_aborts;
          Alcotest.test_case "resume byte-identical" `Quick
            test_supervisor_resume_byte_identical;
          Alcotest.test_case "resume after torn write" `Quick
            test_supervisor_resume_after_torn_write;
          Alcotest.test_case "retry-failed re-runs diagnostics" `Quick
            test_supervisor_retry_failed;
          Alcotest.test_case "every retry attempt journaled" `Quick
            test_supervisor_journals_every_attempt;
          Alcotest.test_case "parallel journal byte-identical" `Quick
            test_supervisor_parallel_byte_identical;
          Alcotest.test_case "warm cache run byte-identical" `Quick
            test_supervisor_warm_cache_byte_identical;
          Alcotest.test_case "resume accepts a fresh journal" `Quick
            test_supervisor_resume_fresh_journal;
          Alcotest.test_case "config mismatch refused" `Quick
            test_supervisor_refuses_config_mismatch;
          Alcotest.test_case "cache keyed by the whole machine" `Quick
            test_supervisor_cache_keys_whole_machine;
          Alcotest.test_case "resume refuses another machine spec" `Quick
            test_supervisor_resume_refuses_other_spec;
          Alcotest.test_case "shard resume loses nothing" `Quick
            test_supervisor_shard_resume_loses_nothing;
          Alcotest.test_case "resume refuses a stray poison record" `Quick
            test_supervisor_resume_refuses_stray_poison;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "c240 validates clean" `Quick
            test_oracle_c240_clean;
          Alcotest.test_case "broken hierarchy caught" `Quick
            test_oracle_broken_hierarchy_caught;
          Alcotest.test_case "faulted probe" `Quick test_oracle_faulted_probe;
          Alcotest.test_case "impossible speed flagged" `Quick
            test_oracle_check_row_flags_impossible_speed;
        ] );
    ]
