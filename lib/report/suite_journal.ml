open Macs_util

let format = "macs-suite-journal"

type config = { machine : string; opt : string; faults : string; guard : int }

let config_of_run ~machine ~opt ~faults ~guard =
  {
    machine = Convex_dsl.Machine_dsl.to_spec machine;
    opt = Fcc.Opt_level.name opt;
    faults =
      (if Convex_fault.Fault.is_none faults then ""
       else Convex_fault.Fault.to_spec faults);
    guard;
  }

let ( let* ) = Result.bind

let str_field r k = Journal.field_err r k

let int_field r k =
  let* s = Journal.field_err r k in
  match Journal.get_int s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: bad int %S" k s)

let float_field r k =
  let* s = Journal.field_err r k in
  match Journal.get_float s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: bad float %S" k s)

let bool_field r k =
  let* s = Journal.field_err r k in
  match Journal.get_bool s with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "field %S: bad bool %S" k s)

(* The structured error channel, field by field: every payload of every
   variant gets its own key, so journaled diagnostics survive a resume
   with nothing flattened to a string. *)
let fields_of_error (e : Macs_error.t) =
  match e with
  | Livelock { site; cycle; pending; word } ->
      [
        ("err", "livelock");
        ("site", site);
        ("cycle", Journal.put_int cycle);
        ("pending", Journal.put_int pending);
      ]
      @ (match word with
        | Some w -> [ ("word", Journal.put_int w) ]
        | None -> [])
  | Stall_out { site; cycle; pending; plan } ->
      [
        ("err", "stall-out");
        ("site", site);
        ("cycle", Journal.put_int cycle);
        ("pending", Journal.put_int pending);
        ("plan", plan);
      ]
  | Dependence_cycle { site; scheduled; total } ->
      [
        ("err", "dependence-cycle");
        ("site", site);
        ("scheduled", Journal.put_int scheduled);
        ("total", Journal.put_int total);
      ]
  | Parse_failure { site; message } ->
      [ ("err", "parse-failure"); ("site", site); ("message", message) ]
  | Budget_exceeded { site; resource; budget; spent } ->
      [
        ("err", "budget-exceeded");
        ("site", site);
        ("resource", resource);
        ("budget", Journal.put_float budget);
        ("spent", Journal.put_float spent);
      ]
  | Oracle_violation { site; invariant; detail } ->
      [
        ("err", "oracle-violation");
        ("site", site);
        ("invariant", invariant);
        ("detail", detail);
      ]
  | Interp_fault { site; detail } ->
      [ ("err", "interp-fault"); ("site", site); ("detail", detail) ]

let error_of_record r : (Macs_error.t, string) result =
  let* kind = str_field r "err" in
  let* site = str_field r "site" in
  match kind with
  | "livelock" ->
      let* cycle = int_field r "cycle" in
      let* pending = int_field r "pending" in
      let word =
        Option.bind (Journal.field r "word") Journal.get_int
      in
      Ok (Macs_error.livelock ~site ~cycle ~pending ?word ())
  | "stall-out" ->
      let* cycle = int_field r "cycle" in
      let* pending = int_field r "pending" in
      let* plan = str_field r "plan" in
      Ok (Macs_error.stall_out ~site ~cycle ~pending ~plan)
  | "dependence-cycle" ->
      let* scheduled = int_field r "scheduled" in
      let* total = int_field r "total" in
      Ok (Macs_error.dependence_cycle ~site ~scheduled ~total)
  | "parse-failure" ->
      let* message = str_field r "message" in
      Ok (Macs_error.parse_failure ~site message)
  | "budget-exceeded" ->
      let* resource = str_field r "resource" in
      let* budget = float_field r "budget" in
      let* spent = float_field r "spent" in
      Ok (Macs_error.budget_exceeded ~site ~resource ~budget ~spent)
  | "oracle-violation" ->
      let* invariant = str_field r "invariant" in
      let* detail = str_field r "detail" in
      Ok (Macs_error.oracle_violation ~site ~invariant detail)
  | "interp-fault" ->
      let* detail = str_field r "detail" in
      Ok (Macs_error.interp_fault ~site detail)
  | k -> Error (Printf.sprintf "unknown error kind %S" k)

let config_record c =
  {
    Journal.tag = "config";
    fields =
      [
        ("machine", c.machine);
        ("opt", c.opt);
        ("faults", c.faults);
        ("guard", Journal.put_int c.guard);
      ];
  }

let config_of_record r =
  if r.Journal.tag <> "config" then
    Error (Printf.sprintf "expected config record, got %S" r.Journal.tag)
  else
    let* machine = str_field r "machine" in
    let* opt = str_field r "opt" in
    let* faults = str_field r "faults" in
    let* guard = int_field r "guard" in
    Ok { machine; opt; faults; guard }

let mode_name = function
  | Convex_vpsim.Job.Vector -> "vector"
  | Convex_vpsim.Job.Scalar -> "scalar"

let mode_of_name = function
  | "vector" -> Ok Convex_vpsim.Job.Vector
  | "scalar" -> Ok Convex_vpsim.Job.Scalar
  | m -> Error (Printf.sprintf "unknown mode %S" m)

let perf_fields (p : Suite.perf) =
  [
    ("cpl", Journal.put_float p.Suite.cpl);
    ("cpf", Journal.put_float p.Suite.cpf);
    ("mflops", Journal.put_float p.Suite.mflops);
  ]

let record_of_row (r : Suite.row) =
  let base =
    [
      ("lfk", Journal.put_int r.Suite.kernel.Lfk.Kernel.id);
      ("mode", mode_name r.Suite.mode);
    ]
  in
  let rest =
    match (r.Suite.outcome, r.Suite.source) with
    | Ok p, Suite.Measured ->
        (("status", "measured") :: perf_fields p)
        @ [
            ("checksum", Journal.put_float p.Suite.checksum);
            ("checksum_ok", Journal.put_bool p.Suite.checksum_ok);
          ]
    | Ok p, Suite.Estimated e ->
        (("status", "estimated") :: perf_fields p) @ fields_of_error e
    | Error e, _ -> ("status", "failed") :: fields_of_error e
  in
  { Journal.tag = "row"; fields = base @ rest }

let row_of_record r : (Suite.row, string) result =
  if r.Journal.tag <> "row" then
    Error (Printf.sprintf "expected row record, got %S" r.Journal.tag)
  else
    let* id = int_field r "lfk" in
    let* kernel =
      match Lfk.Kernels.find id with
      | k -> Ok k
      | exception Not_found -> Error (Printf.sprintf "unknown kernel LFK%d" id)
    in
    let* mode = Result.bind (str_field r "mode") mode_of_name in
    let* status = str_field r "status" in
    let perf ~checksum ~checksum_ok =
      let* cpl = float_field r "cpl" in
      let* cpf = float_field r "cpf" in
      let* mflops = float_field r "mflops" in
      Ok { Suite.cpl; cpf; mflops; checksum; checksum_ok }
    in
    match status with
    | "measured" ->
        let* checksum = float_field r "checksum" in
        let* checksum_ok = bool_field r "checksum_ok" in
        let* p = perf ~checksum ~checksum_ok in
        Ok { Suite.kernel; mode; outcome = Ok p; source = Suite.Measured }
    | "estimated" ->
        let* p = perf ~checksum:Float.nan ~checksum_ok:false in
        let* e = error_of_record r in
        Ok { Suite.kernel; mode; outcome = Ok p; source = Suite.Estimated e }
    | "failed" ->
        let* e = error_of_record r in
        Ok { Suite.kernel; mode; outcome = Error e; source = Suite.Measured }
    | s -> Error (Printf.sprintf "unknown row status %S" s)

(* Retry accounting: a cell that spent relaxed-guard retries journals one
   [attempt] record per consumed attempt, before its row, so exhausted
   retries keep every attempt's diagnostic instead of only the last. *)
let record_of_attempt ~lfk (guard_scale, e) =
  {
    Journal.tag = "attempt";
    fields =
      ("lfk", Journal.put_int lfk)
      :: ("guard_scale", Journal.put_int guard_scale)
      :: fields_of_error e;
  }

let attempt_of_record r =
  if r.Journal.tag <> "attempt" then
    Error (Printf.sprintf "expected attempt record, got %S" r.Journal.tag)
  else
    let* lfk = int_field r "lfk" in
    let* guard_scale = int_field r "guard_scale" in
    let* e = error_of_record r in
    Ok (lfk, guard_scale, e)

let record_of_violation (v : Macs.Oracle.violation) =
  {
    Journal.tag = "violation";
    fields =
      [
        ("invariant", v.Macs.Oracle.invariant);
        ("subject", v.Macs.Oracle.subject);
        ("detail", v.Macs.Oracle.detail);
      ];
  }

let violation_of_record r : (Macs.Oracle.violation, string) result =
  if r.Journal.tag <> "violation" then
    Error (Printf.sprintf "expected violation record, got %S" r.Journal.tag)
  else
    let* invariant = str_field r "invariant" in
    let* subject = str_field r "subject" in
    let* detail = str_field r "detail" in
    Ok { Macs.Oracle.invariant; subject; detail }

(* One suite cell = one kernel's complete journal footprint, in the order
   a sequential run appends it: consumed retry attempts, then any oracle
   violations found on the fresh result, then the row itself (the row
   record closes the cell, which is what lets a resume attribute pending
   attempt/violation records to it). *)
type cell = {
  row : Suite.row;
  attempts : (int * Macs_error.t) list;
  violations : Macs.Oracle.violation list;
}

let records_of_cell c =
  List.map (record_of_attempt ~lfk:c.row.Suite.kernel.Lfk.Kernel.id) c.attempts
  @ List.map record_of_violation c.violations
  @ [ record_of_row c.row ]

let cell_of_records records =
  let rec go attempts violations = function
    | [] -> Error "cell block has no closing row record"
    | [ r ] when r.Journal.tag = "row" ->
        let* row = row_of_record r in
        Ok { row; attempts = List.rev attempts; violations = List.rev violations }
    | r :: rest -> (
        match r.Journal.tag with
        | "attempt" ->
            let* _, scale, e = attempt_of_record r in
            go ((scale, e) :: attempts) violations rest
        | "violation" ->
            let* v = violation_of_record r in
            go attempts (v :: violations) rest
        | t -> Error (Printf.sprintf "unexpected record %S inside a cell" t))
  in
  go [] [] records
