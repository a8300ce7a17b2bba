open Convex_machine
open Convex_fault
open Macs_report
module Exec = Convex_exec.Executor
module J = Macs_util.Journal
module Cache = Convex_cache.Cache

type stats = { resumed : int; executed : int; estimated : int }

type outcome = {
  suite : Suite.t;
  stats : stats;
  quarantined : Exec.poison list;
  cache_counters : Cache.counters option;
}

let ( let* ) = Result.bind

(* Two machine specs run to hundreds of characters and usually differ in
   one field: name only the [;] clauses each side lacks. *)
let spec_diff got want =
  let clauses s = String.split_on_char ';' s in
  let only a b =
    String.concat ";" (List.filter (fun c -> not (List.mem c b)) a)
  in
  (only (clauses got) (clauses want), only (clauses want) (clauses got))

let config_mismatch (want : Suite_journal.config)
    (got : Suite_journal.config) =
  let diff name (g, w) =
    if w = g then None else Some (Printf.sprintf "%s %S vs %S" name g w)
  in
  List.filter_map Fun.id
    [
      diff "machine"
        (spec_diff got.Suite_journal.machine want.Suite_journal.machine);
      diff "opt" (got.Suite_journal.opt, want.Suite_journal.opt);
      diff "faults" (got.Suite_journal.faults, want.Suite_journal.faults);
      diff "guard"
        (string_of_int got.Suite_journal.guard,
         string_of_int want.Suite_journal.guard);
    ]

(* Substitute the analytic estimate for a row the simulation could not
   finish: optimistic numbers, the diagnostic kept, the suite intact. *)
let degrade ~machine ~opt (row : Suite.row) err =
  let e = Macs.Estimate.of_kernel ~machine ~opt row.Suite.kernel in
  {
    row with
    Suite.outcome =
      Ok
        {
          Suite.cpl = e.Macs.Estimate.cpl;
          cpf = e.Macs.Estimate.cpf;
          mflops = e.Macs.Estimate.mflops;
          checksum = Float.nan;
          checksum_ok = false;
        };
    source = Suite.Estimated err;
  }

(* The suite's journal: one cell block per kernel, closed by its [row]
   record.  Resume refuses a journal recorded under another config. *)
let journal_spec ~path ~config ~karr =
  let config_ok r =
    let* got = Suite_journal.config_of_record r in
    match config_mismatch config got with
    | [] -> Ok ()
    | diffs ->
        Error
          (Printf.sprintf
             "journal %s was recorded under a different configuration (%s); \
              refusing to mix incomparable rows — rerun without --resume to \
              start over"
             path
             (String.concat ", " diffs))
  in
  let index_of r =
    if r.J.tag <> "row" then None
    else
      Option.bind (Option.bind (J.field r "lfk") J.get_int) (fun id ->
          Array.find_index (fun k -> k.Lfk.Kernel.id = id) karr)
  in
  {
    Exec.path;
    format = Suite_journal.format;
    config = Suite_journal.config_record config;
    config_ok;
    index_of;
    records_of = (fun _ c -> Suite_journal.records_of_cell c);
    of_records = Suite_journal.cell_of_records;
  }

(* [--retry-failed] keeps only the rows that were measured *)
let measured = function
  | Exec.Done
      {
        Suite_journal.row =
          { Suite.outcome = Ok _; source = Suite.Measured; _ };
        _;
      } ->
      true
  | _ -> false

let cell_key config ~budget k =
  Cache.key ~kind:"suite-cell"
    [
      ("config", J.encode (Suite_journal.config_record config));
      ("budget", Budget.to_string budget);
      ("tol", J.put_float Macs.Oracle.default_tol);
      ("kernel", Lfk.Codec.to_string k);
    ]

let run ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61)
    ?(faults = Fault.none) ?guard ?(budget = Budget.none) ?(jobs = 1)
    ?journal ?(resume = false) ?(retry_failed = false) ?cache () =
  let guard =
    match guard with
    | Some g -> g
    | None ->
        if Fault.is_none faults then Convex_vpsim.Sim.default_guard
        else Suite.faulted_guard
  in
  let config =
    Suite_journal.config_of_run ~machine ~opt ~faults ~guard
  in
  let karr = Array.of_list (Suite.kernels ()) in
  let cells = Array.length karr in
  let cache = Option.map Cache.open_dir cache in
  let compute_cell i =
    let k = karr.(i) in
    let watchdog =
      Budget.watchdog
        ~site:(Printf.sprintf "Supervisor(%s)" k.Lfk.Kernel.name)
        budget
    in
    let row, attempts =
      Suite.run_kernel_attempts ?watchdog ~machine ~opt ~faults ~guard k
    in
    match row.Suite.outcome with
    | Ok p ->
        (* cross-check every measured row against the bounds hierarchy *)
        let vs =
          Macs.Oracle.check_row ~machine
            (Fcc.Compiler.compile ~opt k)
            ~measured_cpl:p.Suite.cpl
        in
        { Suite_journal.row; attempts; violations = vs }
    | Error e ->
        {
          Suite_journal.row = degrade ~machine ~opt row e;
          attempts;
          violations = [];
        }
  in
  let estimated = Atomic.make 0 in
  let run_cell i =
    (* a cell's cache payload is exactly its journal record block, so a
       hit re-journals the same bytes a recompute would have written *)
    let c =
      match cache with
      | None -> compute_cell i
      | Some c ->
          Cache.memo c ~key:(cell_key config ~budget karr.(i))
            ~encode:Suite_journal.records_of_cell
            ~decode:Suite_journal.cell_of_records
            (fun () -> compute_cell i)
    in
    (match c.Suite_journal.row.Suite.source with
    | Suite.Estimated _ -> Atomic.incr estimated
    | Suite.Measured -> ());
    c
  in
  let context i =
    Printf.sprintf "LFK%d (%s)" karr.(i).Lfk.Kernel.id karr.(i).Lfk.Kernel.name
  in
  let* outcomes, estats =
    match journal with
    | None -> Ok (Exec.run ~jobs ~context ~cells run_cell)
    | Some path ->
        Exec.run_journaled ~jobs
          ~resume:(resume || retry_failed)
          ~keep:(fun o -> (not retry_failed) || measured o)
          ~context
          ~journal:(journal_spec ~path ~config ~karr)
          ~cells run_cell
  in
  let rows = ref [] and violations = ref [] in
  let poisons = ref [] in
  Array.iter
    (function
      | Some (Exec.Done (c : Suite_journal.cell)) ->
          rows := c.Suite_journal.row :: !rows;
          violations :=
            List.rev_append c.Suite_journal.violations !violations
      | Some (Exec.Poisoned p) -> poisons := p :: !poisons
      | None -> ())
    outcomes;
  let suite =
    Suite.of_rows
      ~violations:(List.rev !violations)
      ~machine ~faults (List.rev !rows)
  in
  Option.iter
    (fun c ->
      Cache.log_run c
        ~label:
          (Printf.sprintf "suite machine=%s jobs=%d" machine.Machine.name jobs))
    cache;
  Ok
    {
      suite;
      stats =
        {
          resumed = estats.Exec.replayed;
          executed = estats.Exec.executed;
          estimated = Atomic.get estimated;
        };
      quarantined = List.rev !poisons;
      cache_counters = Option.map Cache.counters cache;
    }
