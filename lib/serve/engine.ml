open Convex_machine
module E = Macs_util.Macs_error

let num f = Json.Num f
let int i = Json.Num (float_of_int i)

let base (it : Protocol.item) =
  [
    ("op", Json.Str (Protocol.op_name it.op));
    ("kernel", Json.Str it.kernel_label);
    ("machine", Json.Str it.machine.Machine.name);
  ]

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let item_err fields e =
  Json.Obj
    ((("ok", Json.Bool false) :: fields) @ [ ("error", Protocol.error_json e) ])

(* Deadline degradation: the analytic estimate never simulates, so it is
   always affordable; the diagnostic that cancelled the measurement rides
   along in "degraded". *)
let estimate_fields (est : Macs.Estimate.t) e =
  [
    ("tier", Json.Str "estimate");
    ("cpl", num est.cpl);
    ("cpf", num est.cpf);
    ("mflops", num est.mflops);
    ("level", Json.Str est.level);
    ("degraded", Json.Str (E.to_string e));
  ]

let simulate ?watchdog (it : Protocol.item) k =
  let c = Fcc.Compiler.compile ~opt:it.opt k in
  let layout = Macs.Hierarchy.layout_of c in
  match
    Convex_vpsim.Measure.run ~machine:it.machine ~layout ~faults:it.faults
      ?watchdog ~flops_per_iteration:c.Fcc.Compiler.flops_per_iteration
      c.Fcc.Compiler.job
  with
  | Ok m ->
      let s = m.Convex_vpsim.Measure.stats in
      ok
        (base it
        @ [
            ("tier", Json.Str "full");
            ("cpl", num m.Convex_vpsim.Measure.cpl);
            ("cpf", num m.Convex_vpsim.Measure.cpf);
            ("mflops", num m.Convex_vpsim.Measure.mflops);
            ("cycles", num s.Convex_vpsim.Sim.cycles);
            ("elements", int s.Convex_vpsim.Sim.elements);
            ("strips", int s.Convex_vpsim.Sim.strips);
            ("mem_accesses", int s.Convex_vpsim.Sim.mem_accesses);
            ( "bank_conflict_stalls",
              int s.Convex_vpsim.Sim.bank_conflict_stalls );
            ("refresh_stalls", int s.Convex_vpsim.Sim.refresh_stalls);
            ("port_stalls", int s.Convex_vpsim.Sim.port_stalls);
            ("fault_stalls", int s.Convex_vpsim.Sim.fault_stalls);
          ])
  | Error (E.Budget_exceeded _ as e) ->
      ok (base it @ estimate_fields (Macs.Estimate.of_compiled ~machine:it.machine c) e)
  | Error e -> item_err (base it) (Protocol.of_macs_error e)

let hierarchy ?watchdog (it : Protocol.item) k =
  if not (Fcc.Vectorizer.vectorizable k) then
    item_err (base it)
      (Protocol.perror ~kind:"bad-request"
         "hierarchy needs a vectorizable kernel; use simulate or advise for \
          scalar-mode loops")
  else if not (Convex_fault.Fault.is_none it.faults) then
    item_err (base it)
      (Protocol.perror ~kind:"bad-request"
         "hierarchy measures the healthy machine; drop \"faults\" or use \
          simulate")
  else
    let c = Fcc.Compiler.compile ~opt:it.opt k in
    match Macs.Hierarchy.of_compiled ~machine:it.machine ?watchdog c with
    | h ->
        let issues = Macs.Diagnose.diagnose h in
        ok
          (base it
          @ [
              ("tier", Json.Str "full");
              ("t_ma_cpl", num h.Macs.Hierarchy.t_ma);
              ("t_mac_cpl", num h.Macs.Hierarchy.t_mac);
              ("t_macs_cpl", num h.Macs.Hierarchy.t_macs.Macs.Macs_bound.cpl);
              ( "t_p_cpl",
                num h.Macs.Hierarchy.t_p.Convex_vpsim.Measure.cpl );
              ("t_ma_cpf", num (Macs.Hierarchy.t_ma_cpf h));
              ("t_mac_cpf", num (Macs.Hierarchy.t_mac_cpf h));
              ("t_macs_cpf", num (Macs.Hierarchy.t_macs_cpf h));
              ("t_p_cpf", num (Macs.Hierarchy.t_p_cpf h));
              ("pct_macs", num (Macs.Hierarchy.pct_macs h));
              ( "t_a_cpl",
                num h.Macs.Hierarchy.t_a.Convex_vpsim.Measure.cpl );
              ( "t_x_cpl",
                num h.Macs.Hierarchy.t_x.Convex_vpsim.Measure.cpl );
              ("eq18", Json.Bool (Macs.Hierarchy.eq18_holds h));
              ( "diagnosis",
                Json.Arr
                  (List.map
                     (fun i -> Json.Str (Macs.Diagnose.issue_name i))
                     issues) );
            ])
    | exception E.Error (E.Budget_exceeded _ as e) ->
        ok
          (base it
          @ estimate_fields (Macs.Estimate.of_compiled ~machine:it.machine c) e
          )
    | exception E.Error e -> item_err (base it) (Protocol.of_macs_error e)

let validate ?watchdog (it : Protocol.item) =
  let faults =
    if Convex_fault.Fault.is_none it.faults then None else Some it.faults
  in
  let wd = Option.map (fun w ~site:_ -> Some w) watchdog in
  let r =
    Macs.Oracle.validate ?tol:it.tol ~opt:it.opt ~machine:it.machine ?faults
      ?watchdog:wd ()
  in
  ok
    (base it
    @ [
        ("checked", int r.Macs.Oracle.checked);
        ("clean", Json.Bool (r.Macs.Oracle.violations = []));
        ( "violations",
          Json.Arr
            (List.map
               (fun (v : Macs.Oracle.violation) ->
                 Json.Obj
                   [
                     ("invariant", Json.Str v.invariant);
                     ("subject", Json.Str v.subject);
                     ("detail", Json.Str v.detail);
                   ])
               r.Macs.Oracle.violations) );
        ( "skipped",
          Json.Arr
            (List.map
               (fun (name, e) ->
                 Json.Obj
                   [
                     ("kernel", Json.Str name);
                     ("error", Protocol.error_json (Protocol.of_macs_error e));
                   ])
               r.Macs.Oracle.skipped) );
      ])

let advise ?watchdog (it : Protocol.item) k =
  if not (Convex_fault.Fault.is_none it.faults) then
    item_err (base it)
      (Protocol.perror ~kind:"bad-request"
         "advise evaluates candidate improvements on the healthy machine; \
          drop \"faults\"")
  else
    match Macs.Advisor.advise ~machine:it.machine ?watchdog k with
    | suggestions ->
        ok
          (base it
          @ [
              ("tier", Json.Str "full");
              ( "suggestions",
                Json.Arr
                  (List.map
                     (fun (s : Macs.Advisor.suggestion) ->
                       Json.Obj
                         [
                           ("action", Json.Str s.action);
                           ( "target",
                             Json.Str (Macs.Advisor.target_name s.target) );
                           ("basis", Json.Str (Macs.Advisor.basis_name s.basis));
                           ("baseline_cpf", num s.baseline_cpf);
                           ("projected_cpf", num s.projected_cpf);
                           ("gain", num s.gain);
                         ])
                     suggestions) );
            ])
    | exception E.Error (E.Budget_exceeded _ as e) ->
        ok
          (base it
          @ estimate_fields
              (Macs.Estimate.of_kernel ~machine:it.machine ~opt:it.opt k)
              e
          @ [ ("suggestions", Json.Arr []) ])
    | exception E.Error e -> item_err (base it) (Protocol.of_macs_error e)

let eval_item ?watchdog = function
  | Error e -> item_err [] e
  | Ok (it : Protocol.item) -> (
      match
        match (it.op, it.kernel) with
        | Protocol.Validate, _ -> validate ?watchdog it
        | Protocol.Simulate, Some k -> simulate ?watchdog it k
        | Protocol.Hierarchy, Some k -> hierarchy ?watchdog it k
        | Protocol.Advise, Some k -> advise ?watchdog it k
        | (Protocol.Simulate | Protocol.Hierarchy | Protocol.Advise), None ->
            (* unreachable: decode_item rejects these *)
            item_err (base it)
              (Protocol.perror ~kind:"bad-request" "missing kernel")
      with
      | j -> j
      | exception (Macs_util.Sink.Crashed _ as exn) ->
          (* a simulated process death kills the process; quarantining it
             into a reply would defeat the crash sweep *)
          raise exn
      | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
      | exception exn ->
          item_err (base it)
            (Protocol.perror ~site:"Engine.eval_item" ~kind:"internal"
               (Printexc.to_string exn)))
