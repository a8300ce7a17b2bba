open Convex_isa
module Machine = Convex_machine.Machine
module Fault = Convex_fault.Fault
module Budget = Convex_harness.Budget
module Interp = Convex_vpsim.Interp
module Job = Convex_vpsim.Job
module Measure = Convex_vpsim.Measure
module Sim = Convex_vpsim.Sim
module Fastpath = Convex_vpsim.Fastpath
module Macs_error = Macs_util.Macs_error

type outcome = Pass | Skip of string | Fail of string

type check = { id : string; outcome : outcome }

type report = {
  kernel : Lfk.Kernel.t;
  mode : Job.mode option;
  cpl : float option;
  checks : check list;
}

let failures r =
  List.filter (fun c -> match c.outcome with Fail _ -> true | _ -> false)
    r.checks

let fails r ~id =
  List.exists
    (fun c -> c.id = id && match c.outcome with Fail _ -> true | _ -> false)
    r.checks

(* ---- assembly round trip ---- *)

let check_program (p : Program.t) =
  let id = "asm-roundtrip" in
  let listing = Asm.print_program p in
  match Asm.parse_program listing with
  | Error msg ->
      { id; outcome = Fail (Printf.sprintf "listing does not reparse: %s" msg) }
  | Ok p' ->
      if Program.equal p p' then { id; outcome = Pass }
      else
        { id;
          outcome =
            Fail "reparsed program differs from the printed one" }

(* ---- bitwise store comparison ---- *)

let bits = Int64.bits_of_float

let compare_stores (k : Lfk.Kernel.t) a b =
  let diff = ref None in
  List.iter
    (fun (name, _) ->
      if !diff = None then
        let xa = Convex_vpsim.Store.get a name in
        let xb = Convex_vpsim.Store.get b name in
        if Array.length xa <> Array.length xb then
          diff := Some (Printf.sprintf "%s: lengths differ" name)
        else
          Array.iteri
            (fun i va ->
              if !diff = None && bits va <> bits xb.(i) then
                diff :=
                  Some
                    (Printf.sprintf "%s[%d]: interp %h, eval %h" name i
                       xb.(i) va))
            xa)
    k.arrays;
  !diff

(* ---- the stack ---- *)

let opt_levels =
  [ Fcc.Opt_level.v61; Fcc.Opt_level.ideal; Fcc.Opt_level.loads_first;
    Fcc.Opt_level.packed ]

let compile_check opt k =
  let id = Printf.sprintf "compile:%s" (Fcc.Opt_level.name opt) in
  match Fcc.Compiler.compile ~opt k with
  | c -> (Some c, { id; outcome = Pass })
  | exception Fcc.Compiler.Register_pressure msg ->
      (None, { id; outcome = Skip (Printf.sprintf "register pressure: %s" msg) })
  | exception Invalid_argument msg ->
      (None, { id; outcome = Fail (Printf.sprintf "Invalid_argument: %s" msg) })
  | exception e ->
      (None, { id; outcome = Fail (Printexc.to_string e) })

let diff_check opt (c : Fcc.Compiler.t) =
  let id = Printf.sprintf "diff:%s" (Fcc.Opt_level.name opt) in
  match
    let store_i = Fcc.Compiler.initial_store c in
    let interp_r =
      Interp.run ~sregs:(Fcc.Compiler.initial_sregs c) ~store:store_i c.job
    in
    let store_e = Lfk.Data.store_of c.kernel in
    let eval_r = Eval.run ~mode:c.mode ~store:store_e c.kernel in
    (interp_r, eval_r, store_i, store_e)
  with
  | Ok _, Ok (), store_i, store_e -> (
      match compare_stores c.kernel store_i store_e with
      | None -> { id; outcome = Pass }
      | Some d -> { id; outcome = Fail ("stores diverge: " ^ d) })
  | Error _, Error _, _, _ ->
      (* both executions fault — agreement of a different kind *)
      { id; outcome = Pass }
  | Error e, Ok (), _, _ ->
      { id;
        outcome =
          Fail ("interp faults, eval does not: " ^ Macs_error.to_string e) }
  | Ok _, Error e, _, _ ->
      { id;
        outcome =
          Fail ("eval faults, interp does not: " ^ Macs_error.to_string e) }
  | exception e ->
      { id; outcome = Fail ("exception: " ^ Printexc.to_string e) }

let sim_check ~machine ~budget ~faults (c : Fcc.Compiler.t) =
  let plan_name = Fault.(if is_none faults then None else Some faults.name) in
  let id =
    match plan_name with
    | None -> "sim"
    | Some p -> Printf.sprintf "fault-sim:%s" p
  in
  let watchdog = Budget.watchdog ~site:("fuzz." ^ id) budget in
  match
    Measure.run ~machine ~faults ?watchdog
      ~flops_per_iteration:(max 1 c.flops_per_iteration)
      c.job
  with
  | Ok m -> (Some m, { id; outcome = Pass })
  | Error (Macs_error.Budget_exceeded _ as e) ->
      (None, { id; outcome = Skip (Macs_error.to_string e) })
  | Error _ when plan_name <> None ->
      (* under injected faults any typed degradation is a valid outcome *)
      (None, { id; outcome = Pass })
  | Error e -> (None, { id; outcome = Fail (Macs_error.to_string e) })
  | exception e ->
      (None, { id; outcome = Fail ("exception: " ^ Printexc.to_string e) })

(* ---- cycle vs tiered bit-identity ---- *)

let same_float a b = Int64.equal (bits a) (bits b)

let same_stats (a : Sim.stats) (b : Sim.stats) =
  same_float a.cycles b.cycles
  && a.elements = b.elements
  && a.instructions = b.instructions
  && a.strips = b.strips
  && a.mem_accesses = b.mem_accesses
  && a.bank_conflict_stalls = b.bank_conflict_stalls
  && a.refresh_stalls = b.refresh_stalls
  && a.port_stalls = b.port_stalls
  && a.fault_stalls = b.fault_stalls
  && List.length a.pipe_busy = List.length b.pipe_busy
  && List.for_all2
       (fun (na, xa) (nb, xb) -> String.equal na nb && same_float xa xb)
       a.pipe_busy b.pipe_busy

let same_event (a : Sim.event) (b : Sim.event) =
  a.instr = b.instr && a.strip = b.strip
  && same_float a.issue b.issue
  && same_float a.start b.start
  && same_float a.first_result b.first_result
  && same_float a.completion b.completion

let fidelity_diff_check ~machine ~faults (c : Fcc.Compiler.t) =
  let plan_name = Fault.(if is_none faults then None else Some faults.name) in
  let id =
    match plan_name with
    | None -> "fidelity-diff"
    | Some p -> Printf.sprintf "fidelity-diff:%s" p
  in
  (* deterministic guard, no watchdog: both runs must step (or stall out)
     identically, so even the failure cycle in the diagnostic is part of
     the contract being diffed *)
  let guard = if plan_name = None then Sim.default_guard else 50_000 in
  let once fidelity =
    let log = ref [] in
    let r = Sim.run ~machine ~faults ~guard ~trace:true ~access_log:log ~fidelity c.job in
    (r, !log)
  in
  match (once Fastpath.Cycle, once Fastpath.Tiered) with
  | (Ok rc, lc), (Ok rt, lt) ->
      if not (same_stats rc.Sim.stats rt.Sim.stats) then
        { id; outcome = Fail "stats diverge between cycle and tiered" }
      else if
        List.length rc.Sim.events <> List.length rt.Sim.events
        || not (List.for_all2 same_event rc.Sim.events rt.Sim.events)
      then { id; outcome = Fail "trace events diverge between cycle and tiered" }
      else if lc <> lt then
        { id; outcome = Fail "access logs diverge between cycle and tiered" }
      else { id; outcome = Pass }
  | (Error ec, _), (Error et, _) ->
      if String.equal (Macs_error.to_string ec) (Macs_error.to_string et) then
        { id; outcome = Pass }
      else
        { id;
          outcome =
            Fail
              (Printf.sprintf "diagnostics diverge: cycle %s, tiered %s"
                 (Macs_error.to_string ec) (Macs_error.to_string et)) }
  | (Error ec, _), (Ok _, _) ->
      { id;
        outcome =
          Fail ("cycle fails, tiered completes: " ^ Macs_error.to_string ec) }
  | (Ok _, _), (Error et, _) ->
      { id;
        outcome =
          Fail ("tiered fails, cycle completes: " ^ Macs_error.to_string et) }
  | exception e ->
      { id; outcome = Fail ("exception: " ^ Printexc.to_string e) }

let oracle_checks ~machine (c : Fcc.Compiler.t) ~cpl =
  let row =
    match Macs.Oracle.check_row ~machine c ~measured_cpl:cpl with
    | [] -> [ { id = "oracle:row"; outcome = Pass } ]
    | vs ->
        List.map
          (fun (v : Macs.Oracle.violation) ->
            { id = "oracle:" ^ v.invariant; outcome = Fail v.detail })
          vs
    | exception e ->
        [ { id = "oracle:row";
            outcome = Fail ("exception: " ^ Printexc.to_string e) } ]
  in
  let mono =
    if c.mode <> Job.Vector then []
    else
      match Macs.Oracle.check_opt_monotonicity ~machine c.kernel with
      | [] -> [ { id = "oracle:opt-monotonicity"; outcome = Pass } ]
      | vs ->
          [ { id = "oracle:opt-monotonicity";
              outcome =
                Fail
                  (String.concat "; "
                     (List.map
                        (fun (v : Macs.Oracle.violation) ->
                          v.invariant ^ ": " ^ v.detail)
                        vs)) } ]
      | exception Fcc.Compiler.Register_pressure msg ->
          [ { id = "oracle:opt-monotonicity";
              outcome = Skip ("register pressure: " ^ msg) } ]
      | exception e ->
          [ { id = "oracle:opt-monotonicity";
              outcome = Fail ("exception: " ^ Printexc.to_string e) } ]
  in
  row @ mono

let run ?(machine = Machine.c240) ?(sim = true) ?(fault_plans = [])
    ?(budget = Budget.none) (k : Lfk.Kernel.t) =
  let checks = ref [] in
  let emit c = checks := c :: !checks in
  (* compile at every level, remembering the functional compilations *)
  let compiled =
    List.map
      (fun opt ->
        let c, check = compile_check opt k in
        emit check;
        (opt, c))
      opt_levels
  in
  let functional =
    List.filter_map
      (fun (opt, c) ->
        match c with
        | Some c when Fcc.Opt_level.functional opt -> Some (opt, c)
        | _ -> None)
      compiled
  in
  let mode =
    match functional with (_, c) :: _ -> Some c.Fcc.Compiler.mode | [] -> None
  in
  (* differential runs; scalar-mode code ignores the level, so diff once *)
  let to_diff =
    match mode with
    | Some Job.Scalar -> (
        match functional with [] -> [] | x :: _ -> [ x ])
    | _ -> functional
  in
  List.iter (fun (opt, c) -> emit (diff_check opt c)) to_diff;
  (* listing round trip on the v61 program *)
  (match functional with
  | (_, c) :: _ -> emit (check_program c.Fcc.Compiler.program)
  | [] -> ());
  (* simulation, bounds, faults *)
  let cpl = ref None in
  (if sim then
     match functional with
     | [] -> ()
     | (_, c) :: _ ->
         let m, check = sim_check ~machine ~budget ~faults:Fault.none c in
         emit check;
         (match m with
         | Some m ->
             cpl := Some m.Measure.cpl;
             List.iter emit (oracle_checks ~machine c ~cpl:m.Measure.cpl)
         | None -> ());
         emit (fidelity_diff_check ~machine ~faults:Fault.none c);
         List.iter
           (fun plan ->
             let _, check = sim_check ~machine ~budget ~faults:plan c in
             emit check;
             emit (fidelity_diff_check ~machine ~faults:plan c))
           fault_plans);
  { kernel = k; mode; cpl = !cpl; checks = List.rev !checks }
