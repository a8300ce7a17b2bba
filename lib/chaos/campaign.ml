open Convex_machine
module Fault = Convex_fault.Fault
module Macs_error = Macs_util.Macs_error
module Journal = Macs_util.Journal
module Budget = Convex_harness.Budget
module Suite = Macs_report.Suite
module Exec = Convex_exec.Executor
module Cache = Convex_cache.Cache

(* ---- configuration ---- *)

type config = {
  seed : int;
  cells : int;
  machine : Machine.t;
  opt : Fcc.Opt_level.t;
  budget : Budget.t;
      (** per-cell watchdog; keep it to cycles for a byte-identical
          journal — wall-clock budgets trade determinism for safety *)
  guard : int;
  journal : string option;
  resume : bool;
  max_shrink_steps : int;
  jobs : int;
  kill_cells : int list;
      (** fault injection into the harness itself: these cells raise
          {!Exec.Worker_killed} instead of running — not part of the
          journaled config, like [budget] *)
  cache : string option;
      (** content-addressed result cache directory; keyed on the cell's
          kernel and plan plus the machine spec, opt, guard, budget and
          shrink cap — not on seed or index, so any campaign sharing the
          cache reuses matching cells *)
}

let default_config =
  {
    seed = 42;
    cells = 24;
    machine = Machine.c240;
    opt = Fcc.Opt_level.v61;
    budget = Budget.none;
    guard = Suite.faulted_guard;
    journal = None;
    resume = false;
    max_shrink_steps = 200;
    jobs = 1;
    kill_cells = [];
    cache = None;
  }

(* ---- cells ---- *)

type cell = { index : int; kernel : Lfk.Kernel.t; plan : Fault.t }

(* Each cell's plan is a pure function of (campaign seed, cell index):
   resuming, re-running, and delta-debugging all regenerate exactly the
   same fault space. *)
let cell_of_index cfg i =
  let kernels = Suite.kernels () in
  let kernel = List.nth kernels (i mod List.length kernels) in
  let rand = Random.State.make [| cfg.seed; i; 0xC7A05 |] in
  { index = i; kernel; plan = Fault_space.sample rand ~index:i }

type verdict =
  | Pass
  | Degraded of { kind : string; detail : string }
  | Violation of { check : string; detail : string }

type cell_result = {
  cell : cell;
  verdict : verdict;
  cpl : float option;
  minimized : string option;  (** minimal reproducing plan, as a spec *)
  shrink_steps : int;
  shrink_tried : int;
}

type t = {
  config : config;
  results : cell_result list;
  quarantined : Exec.poison list;
      (** cells whose exception escaped the SLO machinery — no verdict *)
  resumed : int;  (** cells replayed from the journal *)
  executed : int;  (** cells actually run this invocation *)
  cache_counters : Cache.counters option;
      (** per-run hit/miss/store/quarantine counts when a cache was
          configured; never rendered, so cold and warm runs match *)
}

let violations t =
  List.filter
    (fun r -> match r.verdict with Violation _ -> true | _ -> false)
    t.results

let clean t = violations t = [] && t.quarantined = []

(* ---- running one cell ---- *)

let flatten (v : Slo.verdict) =
  match v with
  | Slo.Pass -> Pass
  | Slo.Degraded e ->
      Degraded { kind = Macs_error.kind e; detail = Macs_error.to_string e }
  | Slo.Violation { check; detail } -> Violation { check; detail }

module Plan_shrink = Convex_fuzz.Shrink.Make (struct
  type t = Fault.t

  let equal = Fault.equal_behaviour
  let valid p = Fault.validate p = Ok ()
  let candidates = Fault_space.shrink_candidates
end)

let run_cell cfg (cell : cell) =
  let site = Printf.sprintf "Chaos[%d:%s]" cell.index cell.kernel.Lfk.Kernel.name in
  let check plan =
    let watchdog = Budget.watchdog ~site cfg.budget in
    Slo.check_cell ?watchdog ~machine:cfg.machine ~opt:cfg.opt
      ~guard:cfg.guard plan cell.kernel
  in
  let outcome = check cell.plan in
  match outcome.Slo.verdict with
  | Slo.Violation { check = check0; _ } ->
      (* delta-debug the plan: which clauses does this violation actually
         need?  The predicate re-runs the whole cell under the candidate
         plan and demands the same check fail. *)
      let still_fails plan' =
        match (check plan').Slo.verdict with
        | Slo.Violation { check = c; _ } -> c = check0
        | _ -> false
      in
      let shrunk =
        Plan_shrink.shrink ~max_steps:cfg.max_shrink_steps ~still_fails
          cell.plan
      in
      {
        cell;
        verdict = flatten outcome.Slo.verdict;
        cpl = outcome.Slo.cpl;
        minimized = Some (Fault.to_spec shrunk.Convex_fuzz.Shrink.value);
        shrink_steps = shrunk.Convex_fuzz.Shrink.steps;
        shrink_tried = shrunk.Convex_fuzz.Shrink.tried;
      }
  | v ->
      {
        cell;
        verdict = flatten v;
        cpl = outcome.Slo.cpl;
        minimized = None;
        shrink_steps = 0;
        shrink_tried = 0;
      }

(* ---- journal codec ---- *)

let format = "macs-chaos-campaign"
let ( let* ) = Result.bind

let str_field r k = Journal.field_err r k

let int_field r k =
  let* s = Journal.field_err r k in
  match Journal.get_int s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S: bad int %S" k s)

let config_record cfg =
  {
    Journal.tag = "config";
    fields =
      [
        ("seed", Journal.put_int cfg.seed);
        ("cells", Journal.put_int cfg.cells);
        ("machine", Convex_dsl.Machine_dsl.label cfg.machine);
        ("opt", Fcc.Opt_level.name cfg.opt);
        ("guard", Journal.put_int cfg.guard);
        ("budget", Budget.to_string cfg.budget);
        ("shrink", Journal.put_int cfg.max_shrink_steps);
      ];
  }

(* Resuming under a different configuration would splice incompatible
   cells into one log; refuse rather than guess. *)
let config_matches cfg r =
  let want =
    List.filter (fun (k, _) -> k <> "budget") (config_record cfg).Journal.fields
  in
  List.for_all (fun (k, v) -> Journal.field r k = Some v) want

(* everything about a result that is not the cell's identity — shared
   between the journal codec and the cache payload, which stores only
   these fields (identity is pinned by the cache key and rebuilt from
   [cell_of_index]) *)
let verdict_fields (r : cell_result) =
  let verdict =
    match r.verdict with
    | Pass -> [ ("verdict", "pass") ]
    | Degraded { kind; detail } ->
        [ ("verdict", "degraded"); ("kind", kind); ("detail", detail) ]
    | Violation { check; detail } ->
        [ ("verdict", "violation"); ("check", check); ("detail", detail) ]
  in
  let cpl =
    match r.cpl with
    | Some c -> [ ("cpl", Journal.put_float c) ]
    | None -> []
  in
  let min =
    match r.minimized with
    | Some spec ->
        [
          ("min", spec);
          ("min_steps", Journal.put_int r.shrink_steps);
          ("min_tried", Journal.put_int r.shrink_tried);
        ]
    | None -> []
  in
  verdict @ cpl @ min

let verdict_of_record ~cell r : (cell_result, string) result =
  let* verdict_tag = str_field r "verdict" in
  let* verdict =
    match verdict_tag with
    | "pass" -> Ok Pass
    | "degraded" ->
        let* kind = str_field r "kind" in
        let* detail = str_field r "detail" in
        Ok (Degraded { kind; detail })
    | "violation" ->
        let* check = str_field r "check" in
        let* detail = str_field r "detail" in
        Ok (Violation { check; detail })
    | v -> Error (Printf.sprintf "unknown verdict %S" v)
  in
  let cpl = Option.bind (Journal.field r "cpl") Journal.get_float in
  let minimized = Journal.field r "min" in
  let opt_int k =
    Option.value ~default:0 (Option.bind (Journal.field r k) Journal.get_int)
  in
  Ok
    {
      cell;
      verdict;
      cpl;
      minimized;
      shrink_steps = opt_int "min_steps";
      shrink_tried = opt_int "min_tried";
    }

let record_of_result (r : cell_result) =
  let base =
    [
      ("index", Journal.put_int r.cell.index);
      ("lfk", Journal.put_int r.cell.kernel.Lfk.Kernel.id);
      ("name", r.cell.plan.Fault.name);
      ("plan", Fault.to_spec r.cell.plan);
    ]
  in
  { Journal.tag = "cell"; fields = base @ verdict_fields r }

let result_of_record cfg r : (cell_result, string) result =
  if r.Journal.tag <> "cell" then
    Error (Printf.sprintf "expected cell record, got %S" r.Journal.tag)
  else
    (* the executor has range-checked the index against [cfg.cells] *)
    let* index = int_field r "index" in
    let cell = cell_of_index cfg index in
    let* lfk = int_field r "lfk" in
    let* plan_spec = str_field r "plan" in
    if lfk <> cell.kernel.Lfk.Kernel.id then
      Error
        (Printf.sprintf "cell %d: journal ran LFK%d, campaign generates LFK%d"
           index lfk cell.kernel.Lfk.Kernel.id)
    else if plan_spec <> Fault.to_spec cell.plan then
      Error
        (Printf.sprintf
           "cell %d: journal plan %S differs from the generated %S" index
           plan_spec (Fault.to_spec cell.plan))
    else verdict_of_record ~cell r

(* ---- result cache ---- *)

(* no seed, no index: any campaign evaluating the same (kernel, plan)
   under the same conditions shares the entry; the payload is one
   [chaos-verdict] record of the non-identity fields *)
let cell_key cfg (cell : cell) =
  Cache.key ~kind:"chaos-cell"
    [
      ("machine", Convex_dsl.Machine_dsl.to_spec cfg.machine);
      ("opt", Fcc.Opt_level.name cfg.opt);
      ("guard", Journal.put_int cfg.guard);
      ("budget", Budget.to_string cfg.budget);
      ("shrink", Journal.put_int cfg.max_shrink_steps);
      ("kernel", Lfk.Codec.to_string cell.kernel);
      ("plan", Fault.to_spec cell.plan);
    ]

let payload_of_result r =
  [ { Journal.tag = "chaos-verdict"; fields = verdict_fields r } ]

let result_of_payload ~cell = function
  | [ ({ Journal.tag = "chaos-verdict"; _ } as r) ] ->
      verdict_of_record ~cell r
  | _ -> Error "expected one chaos-verdict record"

(* ---- the campaign loop ---- *)

(* The campaign's journal: one [cell] record per cell.  Resume refuses a
   journal recorded under another config. *)
let journal_spec cfg path =
  let config_ok r =
    if r.Journal.tag <> "config" then
      Error
        (Printf.sprintf "expected config record, got %S" r.Journal.tag)
    else if not (config_matches cfg r) then
      Error
        "journal was written by a different campaign configuration \
         (seed/cells/machine/opt/guard mismatch)"
    else Ok ()
  in
  let index_of r =
    if r.Journal.tag = "cell" then
      Option.bind (Journal.field r "index") Journal.get_int
    else None
  in
  let of_records = function
    | [ r ] -> result_of_record cfg r
    | rs ->
        Error
          (Printf.sprintf "expected one journal record per cell, got %d"
             (List.length rs))
  in
  {
    Exec.path;
    format;
    config = config_record cfg;
    config_ok;
    index_of;
    records_of = (fun _ r -> [ record_of_result r ]);
    of_records;
  }

let run ?(progress = fun _ -> ()) cfg =
  let cache = Option.map Cache.open_dir cfg.cache in
  let run_one i =
    if List.mem i cfg.kill_cells then
      raise
        (Exec.Worker_killed (Printf.sprintf "injected kill at cell %d" i));
    let cell = cell_of_index cfg i in
    match cache with
    | None -> run_cell cfg cell
    | Some c ->
        Cache.memo c ~key:(cell_key cfg cell) ~encode:payload_of_result
          ~decode:(result_of_payload ~cell)
          (fun () -> run_cell cfg cell)
  in
  let context i =
    let c = cell_of_index cfg i in
    Printf.sprintf "%s under %s" c.kernel.Lfk.Kernel.name (Fault.to_spec c.plan)
  in
  let* outcomes, stats =
    match cfg.journal with
    | None ->
        Ok (Exec.run ~jobs:cfg.jobs ~context ~progress ~cells:cfg.cells run_one)
    | Some path ->
        Exec.run_journaled ~jobs:cfg.jobs ~resume:cfg.resume ~context
          ~progress ~journal:(journal_spec cfg path) ~cells:cfg.cells run_one
  in
  let results = ref [] and quarantined = ref [] in
  Array.iter
    (function
      | Some (Exec.Done r) -> results := r :: !results
      | Some (Exec.Poisoned p) -> quarantined := p :: !quarantined
      | None -> ())
    outcomes;
  Option.iter
    (fun c ->
      Cache.log_run c
        ~label:
          (Printf.sprintf "chaos seed=%d cells=%d jobs=%d" cfg.seed cfg.cells
             cfg.jobs))
    cache;
  Ok
    {
      config = cfg;
      results = List.rev !results;
      quarantined = List.rev !quarantined;
      resumed = stats.Exec.replayed;
      executed = stats.Exec.executed;
      cache_counters = Option.map Cache.counters cache;
    }

(* ---- rendering ---- *)

let matrix t =
  let rows =
    List.filter
      (fun name ->
        List.exists
          (fun r -> r.cell.kernel.Lfk.Kernel.name = name)
          t.results)
      (List.map (fun (k : Lfk.Kernel.t) -> k.name) (Suite.kernels ()))
  in
  let cols =
    List.fold_left
      (fun acc r ->
        let f = Fault_space.family_of_name r.cell.plan.Fault.name in
        if List.mem f acc then acc else acc @ [ f ])
      [] t.results
  in
  let m = Macs_report.Matrix.create ~rows ~cols in
  List.iter
    (fun r ->
      let v =
        match r.verdict with
        | Pass -> Macs_report.Matrix.Pass
        | Degraded _ -> Macs_report.Matrix.Degraded
        | Violation _ -> Macs_report.Matrix.Violation
      in
      Macs_report.Matrix.set m
        ~row:r.cell.kernel.Lfk.Kernel.name
        ~col:(Fault_space.family_of_name r.cell.plan.Fault.name)
        v)
    t.results;
  m

let render t =
  let buf = Buffer.create 2048 in
  let count p = List.length (List.filter p t.results) in
  let passed = count (fun r -> r.verdict = Pass) in
  let degraded =
    count (fun r -> match r.verdict with Degraded _ -> true | _ -> false)
  in
  let viols = violations t in
  Buffer.add_string buf
    (Printf.sprintf
       "Chaos campaign: seed %d, %d cells on %s (opt %s, guard %d)\n"
       t.config.seed t.config.cells
       (Convex_dsl.Machine_dsl.label t.config.machine)
       (Fcc.Opt_level.name t.config.opt)
       t.config.guard);
  let quarantine_note =
    match t.quarantined with
    | [] -> ""
    | ps -> Printf.sprintf ", %d quarantined" (List.length ps)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  %d pass, %d degraded (typed diagnostics), %d violation%s%s; %d \
        replayed from journal, %d executed\n\n"
       passed degraded (List.length viols)
       (if List.length viols = 1 then "" else "s")
       quarantine_note t.resumed t.executed);
  Buffer.add_string buf
    (Macs_report.Matrix.render
       ~title:
         "Resilience matrix (fault family x kernel; worst verdict: ok < deg \
          < VIOL)"
       (matrix t));
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      match r.verdict with
      | Violation { check; detail } ->
          Buffer.add_string buf
            (Printf.sprintf
               "\ncell %d: %s under %S broke %s\n  %s\n  plan: %s\n"
               r.cell.index r.cell.kernel.Lfk.Kernel.name
               r.cell.plan.Fault.name check detail
               (Fault.to_spec r.cell.plan));
          Option.iter
            (fun spec ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  minimal plan: %s  (%d shrink steps, %d candidates \
                    tried)\n"
                   spec r.shrink_steps r.shrink_tried))
            r.minimized
      | _ -> ())
    viols;
  List.iter
    (fun (p : Exec.poison) ->
      Buffer.add_string buf
        (Printf.sprintf
           "\ncell %d QUARANTINED after %d attempt%s: %s\n  context: %s\n"
           p.Exec.index p.Exec.attempts
           (if p.Exec.attempts = 1 then "" else "s")
           p.Exec.error p.Exec.context))
    t.quarantined;
  Buffer.contents buf
