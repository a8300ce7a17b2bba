(* In-process traced mirror of [Server.handle_line].  Each layer is timed
   around the calls the server makes into its public functions; the
   mirror's replies must equal the real server's byte for byte, so the
   spans describe exactly the work the server does. *)

module Json = Convex_serve.Json
module Protocol = Convex_serve.Protocol
module Session = Convex_serve.Session
module Cache = Convex_cache.Cache
module Measure = Convex_vpsim.Measure

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  frame : int;  (** index of the frame being served *)
}

type recorder = {
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
  mutable frame : int;
}

let recorder () = { spans = [||]; n = 0; stack = []; frame = 0 }

let span r name f =
  let id = r.n in
  if id = Array.length r.spans then
    r.spans <-
      Array.append r.spans
        (Array.make (max 1024 id)
           { name = ""; start = 0L; stop = 0L; parent = -1; frame = -1 });
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  let sp =
    { name; start = Monotonic_clock.now (); stop = 0L; parent; frame = r.frame }
  in
  r.spans.(id) <- sp;
  r.n <- id + 1;
  r.stack <- id :: r.stack;
  let close () =
    sp.stop <- Monotonic_clock.now ();
    r.stack <- List.tl r.stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* ---- the mirrored request path ------------------------------------ *)

type mirror = {
  rec_ : recorder;
  session : Session.t;
  cache : Cache.t option;
  max_batch : int;
}

let mirror ~cache ~dir =
  Wire.mkdir_p dir;
  match Session.open_ (Filename.concat dir "session.journal") with
  | Error why -> failwith why
  | Ok session ->
      {
        rec_ = recorder ();
        session;
        cache =
          (if cache then Some (Cache.open_dir (Filename.concat dir "cache"))
           else None);
        max_batch = Convex_serve.Server.default_config.max_batch;
      }

let num f = Json.Num f
let int i = Json.Num (float_of_int i)

let base (it : Protocol.item) =
  [
    ("op", Json.Str (Protocol.op_name it.op));
    ("kernel", Json.Str it.kernel_label);
    ("machine", Json.Str it.machine.Convex_machine.Machine.name);
  ]

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

(* The server arms a (never-firing) drain watchdog on every frame. *)
let watchdog ~cycle:_ = None

let simulate m (it : Protocol.item) k =
  let sp name f = span m.rec_ name f in
  let c = sp "fcc.compile" (fun () -> Fcc.Compiler.compile ~opt:it.opt k) in
  let layout = sp "core.layout" (fun () -> Macs.Hierarchy.layout_of c) in
  match
    sp "vpsim.measure" (fun () ->
        Measure.run ~machine:it.machine ~layout ~faults:it.faults ~watchdog
          ~fidelity:it.fidelity
          ~flops_per_iteration:c.Fcc.Compiler.flops_per_iteration
          c.Fcc.Compiler.job)
  with
  | Error _ -> None
  | Ok r ->
      let s = r.Measure.stats in
      Some
        (ok
           (base it
           @ [
               ("tier", Json.Str "full");
               ("cpl", num r.Measure.cpl);
               ("cpf", num r.Measure.cpf);
               ("mflops", num r.Measure.mflops);
               ("cycles", num s.Convex_vpsim.Sim.cycles);
               ("elements", int s.Convex_vpsim.Sim.elements);
               ("strips", int s.Convex_vpsim.Sim.strips);
               ("mem_accesses", int s.Convex_vpsim.Sim.mem_accesses);
               ("bank_conflict_stalls", int s.Convex_vpsim.Sim.bank_conflict_stalls);
               ("refresh_stalls", int s.Convex_vpsim.Sim.refresh_stalls);
               ("port_stalls", int s.Convex_vpsim.Sim.port_stalls);
               ("fault_stalls", int s.Convex_vpsim.Sim.fault_stalls);
             ]))

let hierarchy m (it : Protocol.item) k =
  let c = span m.rec_ "fcc.compile" (fun () -> Fcc.Compiler.compile ~opt:it.opt k) in
  let h, issues =
    span m.rec_ "core.hierarchy" (fun () ->
        let h =
          Macs.Hierarchy.of_compiled ~machine:it.machine ~watchdog
            ~fidelity:it.fidelity c
        in
        (h, Macs.Diagnose.diagnose h))
  in
  let module H = Macs.Hierarchy in
  Some
    (ok
       (base it
       @ [
           ("tier", Json.Str "full");
           ("t_ma_cpl", num h.H.t_ma);
           ("t_mac_cpl", num h.H.t_mac);
           ("t_macs_cpl", num h.H.t_macs.Macs.Macs_bound.cpl);
           ("t_p_cpl", num h.H.t_p.Measure.cpl);
           ("t_ma_cpf", num (H.t_ma_cpf h));
           ("t_mac_cpf", num (H.t_mac_cpf h));
           ("t_macs_cpf", num (H.t_macs_cpf h));
           ("t_p_cpf", num (H.t_p_cpf h));
           ("pct_macs", num (H.pct_macs h));
           ("t_a_cpl", num h.H.t_a.Measure.cpl);
           ("t_x_cpl", num h.H.t_x.Measure.cpl);
           ("eq18", Json.Bool (H.eq18_holds h));
           ( "diagnosis",
             Json.Arr
               (List.map
                  (fun i -> Json.Str (Macs.Diagnose.issue_name i))
                  issues) );
         ]))

let advise m (it : Protocol.item) k =
  let module A = Macs.Advisor in
  let suggestions =
    span m.rec_ "core.advise" (fun () -> A.advise ~machine:it.machine ~watchdog k)
  in
  Some
    (ok
       (base it
       @ [
           ("tier", Json.Str "full");
           ( "suggestions",
             Json.Arr
               (List.map
                  (fun (s : A.suggestion) ->
                    Json.Obj
                      [
                        ("action", Json.Str s.action);
                        ("target", Json.Str (A.target_name s.target));
                        ("basis", Json.Str (A.basis_name s.basis));
                        ("baseline_cpf", num s.baseline_cpf);
                        ("projected_cpf", num s.projected_cpf);
                        ("gain", num s.gain);
                      ])
                  suggestions) );
         ]))

(* Item evaluation, split into its layers for the three ops the workloads
   send on a healthy machine; anything else (and any simulation that does
   not complete) is evaluated by [Engine.eval_item] itself, so the reply
   bytes never depend on the mirror. *)
let eval_item m decoded =
  span m.rec_ "engine.eval" (fun () ->
      let traced =
        try
        match decoded with
        | Ok (it : Protocol.item) when Convex_fault.Fault.is_none it.faults -> (
            match (it.op, it.kernel) with
            | Protocol.Simulate, Some k -> simulate m it k
            | Protocol.Hierarchy, Some k when Fcc.Vectorizer.vectorizable k ->
                hierarchy m it k
            | Protocol.Advise, Some k -> advise m it k
            | _ -> None)
        | _ -> None
        with Macs_util.Macs_error.Error _ -> None
      in
      match traced with
      | Some j -> j
      | None -> Convex_serve.Engine.eval_item ~watchdog decoded)

let cache_key frame_key = Cache.key ~kind:"serve-reply" [ ("frame", frame_key) ]

let reply_of_results ~id item_lines =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("ok", Json.Bool true);
         ( "results",
           Json.Arr (List.map (fun l -> Result.get_ok (Json.parse l)) item_lines) );
       ])

let compute m ~key ~id items =
  let sp name f = span m.rec_ name f in
  let items = Array.of_list items in
  let n = Array.length items in
  let already i =
    sp "session.lookup" (fun () ->
        Option.map
          (fun l -> Convex_exec.Executor.Done l)
          (Session.lookup_item m.session ~key ~index:i))
  in
  (* a fold over every journaled item: its cost grows with the session *)
  ignore (sp "session.items_done" (fun () -> Session.items_done m.session ~key));
  let eval i =
    let j = eval_item m items.(i) in
    let line = sp "json.encode" (fun () -> Json.to_string j) in
    sp "session.append" (fun () -> Session.record_item m.session ~key ~index:i line);
    line
  in
  let outcomes, _ =
    sp "exec.run" (fun () ->
        Convex_exec.Executor.run ~jobs:1 ~already ~cells:n eval)
  in
  let lines =
    Array.to_list
      (Array.map
         (function
           | Some (Convex_exec.Executor.Done l) -> l
           | _ -> failwith "mirror: a batch cell did not complete")
         outcomes)
  in
  let reply = sp "json.encode" (fun () -> reply_of_results ~id lines) in
  sp "session.append" (fun () -> Session.record_frame m.session ~key ~id reply);
  Option.iter
    (fun c -> sp "cache.store" (fun () -> Cache.store c ~key:(cache_key key) reply))
    m.cache;
  (* the server re-parses every item line to count degraded items *)
  sp "json.encode" (fun () -> List.iter (fun l -> ignore (Json.parse l)) lines);
  reply

let handle_line m ~frame line =
  m.rec_.frame <- frame;
  let sp name f = span m.rec_ name f in
  sp "server.handle_line" (fun () ->
      match sp "protocol.decode" (fun () -> Protocol.decode_frame ~max_batch:m.max_batch line) with
      | Ok (Protocol.Batch { id; items; _ }) -> (
          let key = sp "session.key" (fun () -> Session.frame_key ~id ~payload:line) in
          (* the server looks up twice on a miss: once before and once
             after claiming the frame's single-flight slot *)
          let replay () =
            match sp "session.lookup" (fun () -> Session.lookup_frame m.session ~key) with
            | Some r -> Some r
            | None ->
                Option.bind m.cache (fun c ->
                    sp "cache.find" (fun () -> Cache.find c ~key:(cache_key key)))
          in
          match replay () with
          | Some r -> r
          | None -> (
              match replay () with Some r -> r | None -> compute m ~key ~id items))
      | Ok (Protocol.Control _) | Error _ -> failwith "mirror: not a work frame")

(* ---- aggregation ---------------------------------------------------- *)

type layer = { lname : string; calls : int; total_ns : float; self_ns : float }

(* Per span name: call count, total time, and self time (duration minus
   the part covered by direct children), over spans whose frame passes
   [keep]. *)
let layers ~keep r =
  let child_ns = Array.make r.n 0.0 in
  let dur i = Int64.to_float (Int64.sub r.spans.(i).stop r.spans.(i).start) in
  for i = 0 to r.n - 1 do
    let p = r.spans.(i).parent in
    if p >= 0 then child_ns.(p) <- child_ns.(p) +. dur i
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    if keep s.frame then begin
      let c, t, self =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. dur i, self +. dur i -. child_ns.(i))
    end
  done;
  Hashtbl.fold
    (fun lname (calls, total_ns, self_ns) acc -> { lname; calls; total_ns; self_ns } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

let write_json r ~path ~header =
  let oc = open_out_bin path in
  let t0 = if r.n > 0 then r.spans.(0).start else 0L in
  Printf.fprintf oc "{%s,\"spans\":[" header;
  for i = 0 to r.n - 1 do
    let s = r.spans.(i) in
    Printf.fprintf oc "%s{\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"frame\":%d}"
      (if i = 0 then "" else ",\n")
      s.name (Int64.sub s.start t0) (Int64.sub s.stop t0) s.parent s.frame
  done;
  output_string oc "]}\n";
  close_out oc
