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

let config_mismatch (want : Suite_journal.config)
    (got : Suite_journal.config) =
  let diff name w g =
    if w = g then None else Some (Printf.sprintf "%s %S vs %S" name g w)
  in
  List.filter_map Fun.id
    [
      diff "machine" want.Suite_journal.machine got.Suite_journal.machine;
      diff "opt" want.Suite_journal.opt got.Suite_journal.opt;
      diff "faults" want.Suite_journal.faults got.Suite_journal.faults;
      diff "guard"
        (string_of_int want.Suite_journal.guard)
        (string_of_int got.Suite_journal.guard);
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

let records_of_prior = function
  | Exec.Done c -> Suite_journal.records_of_cell c
  | Exec.Poisoned p -> [ Exec.poison_record p ]

(* Resume: merge any journal shards a killed parallel run left behind
   back into the main journal ({!J.merge_shards}), then decode each
   cell block — retry attempts and violations close with their row; a
   lone poison record is a quarantined cell. *)
let load_prior ~path ~config ~retry_failed ~karr =
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
  let kernel_index id =
    let rec go i =
      if i >= Array.length karr then None
      else if karr.(i).Lfk.Kernel.id = id then Some i
      else go (i + 1)
    in
    go 0
  in
  let index_of r =
    match r.J.tag with
    | "row" ->
        Option.bind (Option.bind (J.field r "lfk") J.get_int) kernel_index
    | "poison" -> Option.bind (J.field r "index") J.get_int
    | _ -> None
  in
  let had_shards = J.shards ~path <> [] in
  let* orig, groups =
    J.merge_shards ~path ~format:Suite_journal.format ~config_ok ~index_of
  in
  let* prior =
    List.fold_left
      (fun acc (i, records) ->
        let* acc = acc in
        match records with
        | [ r ] when r.J.tag = "poison" ->
            let* p = Exec.poison_of_record r in
            Ok ((i, Exec.Poisoned p) :: acc)
        | _ ->
            let* cell = Suite_journal.cell_of_records records in
            Ok ((i, Exec.Done cell) :: acc))
      (Ok []) groups
  in
  let prior = List.rev prior in
  let keep =
    if retry_failed then
      List.filter
        (fun (_, o) ->
          match o with
          | Exec.Done (c : Suite_journal.cell) -> (
              match
                (c.Suite_journal.row.Suite.outcome, c.Suite_journal.row.Suite.source)
              with
              | Ok _, Suite.Measured -> true
              | _ -> false)
          | Exec.Poisoned _ -> false)
        prior
    else prior
  in
  if retry_failed then
    J.write_atomic ~path ~format:Suite_journal.format
      (orig :: List.concat_map (fun (_, o) -> records_of_prior o) keep);
  Ok (orig, keep, retry_failed || had_shards)

let run ?(machine = Machine.c240) ?(opt = Fcc.Opt_level.v61)
    ?(faults = Fault.none) ?guard ?(budget = Budget.none)
    ?(oracle_tol = Macs.Oracle.default_tol) ?(jobs = 1) ?journal
    ?(resume = false) ?(retry_failed = false) ?cache () =
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
  let resume = resume || retry_failed in
  let karr = Array.of_list (Suite.kernels ()) in
  let cells = Array.length karr in
  (* a file in the [Fresh] state — missing, empty, or an interrupted
     create — never received a cell, so resuming into it degenerates to
     starting over *)
  let live path =
    not (J.is_fresh ~path ~format:Suite_journal.format)
  in
  let* orig_config, prior, rewrite =
    match journal with
    | Some path when resume && live path ->
        load_prior ~path ~config ~retry_failed ~karr
    | Some _ | None -> Ok (Suite_journal.config_record config, [], false)
  in
  (* a fresh run (or a resume aimed at a missing file) starts the journal
     with just the config record; a true resume appends after — or, when
     shards were merged, rewrites over — the existing records *)
  (match journal with
  | Some path when (not resume) || not (live path) ->
      Suite_journal.start ~path config
  | _ -> ());
  let replayed = Hashtbl.create 16 in
  List.iter (fun (i, o) -> Hashtbl.replace replayed i o) prior;
  let cache = Option.map Cache.open_dir cache in
  let cell_key k =
    Cache.key ~kind:"suite-cell"
      [
        ("config", J.encode (Suite_journal.config_record config));
        ("budget", Budget.to_string budget);
        ("tol", J.put_float oracle_tol);
        ("kernel", Lfk.Codec.to_string k);
      ]
  in
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
          Macs.Oracle.check_row ~tol:oracle_tol ~machine
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
  (* a cell's cache payload is exactly its journal record block, so a
     hit re-journals the same bytes a recompute would have written *)
  let run_cell i =
    match cache with
    | None -> compute_cell i
    | Some c ->
        Cache.memo c ~key:(cell_key karr.(i))
          ~encode:Suite_journal.records_of_cell
          ~decode:Suite_journal.cell_of_records
          (fun () -> compute_cell i)
  in
  let journal_spec =
    Option.map
      (fun path ->
        {
          Exec.path;
          format = Suite_journal.format;
          config = orig_config;
          records_of = (fun _ c -> Suite_journal.records_of_cell c);
        })
      journal
  in
  let outcomes, estats =
    Exec.run ~jobs ?journal:journal_spec ~rewrite
      ~already:(fun i -> Hashtbl.find_opt replayed i)
      ~context:(fun i ->
        Printf.sprintf "LFK%d (%s)" karr.(i).Lfk.Kernel.id
          karr.(i).Lfk.Kernel.name)
      ~cells run_cell
  in
  let rows = ref [] and violations = ref [] in
  let poisons = ref [] and estimated = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some (Exec.Done (c : Suite_journal.cell)) ->
          rows := c.Suite_journal.row :: !rows;
          violations :=
            List.rev_append c.Suite_journal.violations !violations;
          if not (Hashtbl.mem replayed i) then (
            match c.Suite_journal.row.Suite.source with
            | Suite.Estimated _ -> incr estimated
            | Suite.Measured -> ())
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
          estimated = !estimated;
        };
      quarantined = List.rev !poisons;
      cache_counters = Option.map Cache.counters cache;
    }
