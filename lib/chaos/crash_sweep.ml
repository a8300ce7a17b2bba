(* The deterministic crash-point sweep harness.

   Every durable write in the repo is a numbered {!Macs_util.Sink}
   boundary.  A sweep first runs a scenario once with the sink disarmed
   to learn how many boundaries the workload has and what its final
   artifacts look like, then replays it from scratch once per boundary
   with the sink armed to kill the (simulated) process right there —
   before, mid-write, or just after — and drives the scenario's own
   recovery path against whatever the crash left on disk.  The contract
   checked at every point is the repo's crash-consistency invariant: the
   recovered artifacts are byte-identical to an uninterrupted run's, no
   cell lost, none duplicated, and no torn or stale cache entry ever
   served (a served one would change the recomputed bytes). *)

module Sink = Macs_util.Sink
module Journal = Macs_util.Journal
module Exec = Convex_exec.Executor
module Driver = Convex_fuzz.Driver
module Corpus = Convex_fuzz.Corpus
module Supervisor = Convex_harness.Supervisor
module Budget = Convex_harness.Budget
module Serve = Convex_serve.Server
module Net_sup = Convex_serve.Supervisor

(* ---- scenarios ---- *)

type phases = {
  run : unit -> unit;
  recover : unit -> unit;
  artifacts : string list;
}

type scenario = { name : string; prepare : dir:string -> phases }

(* ---- small file helpers ---- *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_opt path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Some
      (Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* ---- the sweep ---- *)

type failure = {
  point : int;
  mode : Sink.mode;
  stage : string;  (** ["run"], ["recover"], or the artifact that differed *)
  detail : string;
}

type report = {
  scenario : string;
  boundaries : int;
  points : int;  (** armed runs performed *)
  crashes : int;  (** of those, how many actually died at their boundary *)
  failures : failure list;
}

let ok r = r.failures = []

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "crash sweep %-12s %3d boundaries, %3d injection points, %3d crashes, \
        %d failure%s\n"
       (r.scenario ^ ":") r.boundaries r.points r.crashes
       (List.length r.failures)
       (if List.length r.failures = 1 then "" else "s"));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  FAIL point %d (%s) at %s: %s\n" f.point
           (Sink.mode_name f.mode) f.stage f.detail))
    r.failures;
  Buffer.contents buf

(* Boundary numbers to arm, 1-based: every [stride]'th one, always
   including the first and the last. *)
let pick_points ~boundaries ~stride =
  let stride = max 1 stride in
  let rec go i acc = if i > boundaries then acc else go (i + stride) (i :: acc) in
  let pts = go 1 [] in
  let pts = if List.mem boundaries pts then pts else boundaries :: pts in
  List.rev pts

let modes = [ Sink.Before; Sink.Torn; Sink.After ]

let sweep ?(cross = false) ?(stride = 1) ~dir scenario =
  mkdir_p dir;
  (* golden pass: disarmed, count the boundaries, capture the artifacts *)
  Sink.reset ();
  let golden_dir = Filename.concat dir "golden" in
  mkdir_p golden_dir;
  let g = scenario.prepare ~dir:golden_dir in
  g.run ();
  let boundaries = Sink.boundaries () in
  let golden = List.map read_opt g.artifacts in
  let points = ref 0 and crashes = ref 0 and failures = ref [] in
  let fail point mode stage detail =
    failures := { point; mode; stage; detail } :: !failures
  in
  let run_point rank point mode =
    incr points;
    let pdir =
      Filename.concat dir (Printf.sprintf "p%03d-%s" point (Sink.mode_name mode))
    in
    mkdir_p pdir;
    let p = scenario.prepare ~dir:pdir in
    Sink.reset ();
    Sink.arm ~at:point ~mode;
    let crashed =
      match p.run () with
      | () -> false
      | exception Sink.Crashed _ -> true
    in
    Sink.reset ();
    if crashed then incr crashes
    else
      (* deterministic workloads hit the same boundaries every run; not
         crashing at an in-range point means the run diverged *)
      fail point mode "run"
        (Printf.sprintf "completed without crashing (golden run had %d \
                         boundaries)" boundaries);
    (match p.recover () with
    | () -> ()
    | exception e -> fail point mode "recover" (Printexc.to_string e));
    List.iter2
      (fun want path ->
        let got = read_opt path in
        if got <> want then
          fail point mode (Filename.basename path)
            (match (want, got) with
            | Some _, None -> "artifact missing after recovery"
            | None, Some _ -> "unexpected artifact after recovery"
            | _ ->
                Printf.sprintf "bytes differ from the uninterrupted run \
                                (rank %d)" rank))
      golden p.artifacts;
    (* keep the evidence when a point failed, reclaim the disk otherwise *)
    if
      not
        (List.exists
           (fun f -> f.point = point && f.mode = mode)
           !failures)
    then rm_rf pdir
  in
  List.iteri
    (fun rank point ->
      if cross then List.iter (fun m -> run_point rank point m) modes
      else run_point rank point (List.nth modes (rank mod List.length modes)))
    (pick_points ~boundaries ~stride);
  Sink.reset ();
  {
    scenario = scenario.name;
    boundaries;
    points = !points;
    crashes = !crashes;
    failures = List.rev !failures;
  }

(* ---- canned scenario: bare executor with sharded journaling ----

   The cheapest workload that still drives every journal write boundary:
   [Exec.run_journaled ~jobs:1 ~sharded:true] creates the main journal,
   then journals through a per-worker shard and a final canonical
   rewrite (shard create, shard appends, tmp create, publish rename),
   all with a pure-arithmetic cell body.  Recovery is the executor's own
   resume — the very path the suite and chaos harnesses take: merge
   surviving shards, replay completed cells, run the rest, rewrite
   canonically. *)

let exec_format = "macs-crash-exec"

let scenario_exec_shards ?(cells = 6) () =
  let config =
    { Journal.tag = "config"; fields = [ ("cells", Journal.put_int cells) ] }
  in
  let body i = (i * i) + 7 in
  let journal path =
    {
      Exec.path;
      format = exec_format;
      config;
      config_ok =
        (fun r ->
          if r = config then Ok ()
          else
            Error
              (Printf.sprintf "unexpected config record %S" r.Journal.tag));
      index_of =
        (fun r ->
          if r.Journal.tag = "cell" then
            Option.bind (Journal.field r "index") Journal.get_int
          else None);
      records_of =
        (fun i v ->
          [
            {
              Journal.tag = "cell";
              fields =
                [ ("index", Journal.put_int i); ("value", Journal.put_int v) ];
            };
          ]);
      of_records =
        (function
        | [ r ] ->
            Option.to_result ~none:"cell record without an integer value"
              (Option.bind (Journal.field r "value") Journal.get_int)
        | rs ->
            Error (Printf.sprintf "%d records, expected 1" (List.length rs)));
    }
  in
  let prepare ~dir =
    let path = Filename.concat dir "exec.journal" in
    let go ~resume () =
      match
        Exec.run_journaled ~jobs:1 ~sharded:true ~resume
          ~journal:(journal path) ~cells body
      with
      | Ok _ -> ()
      | Error e -> failwith ("exec-shards: " ^ e)
    in
    { run = go ~resume:false; recover = go ~resume:true; artifacts = [ path ] }
  in
  { name = "exec-shards"; prepare }

(* ---- canned scenario: chaos campaign with journal and cache ----

   Journal create and appends, cache stores and publishes, and the cache
   run log, with the campaign's own [~resume] as the recovery path.  A
   cycle-only budget keeps every cell (and thus every boundary count)
   deterministic. *)

let scenario_chaos ?(cells = 4) () =
  let prepare ~dir =
    let path = Filename.concat dir "chaos.journal" in
    let cfg =
      {
        Campaign.default_config with
        Campaign.cells;
        seed = 11;
        journal = Some path;
        cache = Some (Filename.concat dir "cache");
      }
    in
    let go c =
      match Campaign.run c with
      | Ok _ -> ()
      | Error e -> failwith ("chaos: " ^ e)
    in
    {
      run = (fun () -> go cfg);
      recover = (fun () -> go { cfg with Campaign.resume = true });
      artifacts = [ path ];
    }
  in
  { name = "chaos"; prepare }

(* ---- canned scenario: fuzz campaign warmed by the cache ----

   The fuzz driver has no journal to resume; its recovery is simply
   running the whole campaign again over the same cache directory — every
   case the crashed run managed to store replays as a hit, the rest
   recompute.  The artifact is a stable digest of the summary (wall-clock
   excluded), so a hit whose bytes differ from a recompute cannot hide. *)

let digest_of_summary (s : Driver.summary) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "cases=%d/%d\n" s.Driver.cases_run s.Driver.cases_requested);
  List.iter
    (fun (l, n) -> Buffer.add_string buf (Printf.sprintf "label %s=%d\n" l n))
    s.Driver.by_label;
  Buffer.add_string buf
    (Printf.sprintf "passed=%d\nskipped=%d\n" s.Driver.checks_passed
       s.Driver.checks_skipped);
  List.iter
    (fun (v : Driver.violation) ->
      Buffer.add_string buf
        (Printf.sprintf "violation %d %s %s steps=%d tried=%d\n%s\n"
           v.Driver.case_index v.Driver.case_label v.Driver.check
           v.Driver.shrink_steps v.Driver.shrink_tried v.Driver.payload))
    s.Driver.violations;
  Buffer.contents buf

let scenario_fuzz ?(count = 6) () =
  let prepare ~dir =
    let digest = Filename.concat dir "fuzz.digest" in
    let cfg =
      {
        Driver.default_config with
        Driver.seed = 5;
        count;
        fault_plans = [];
        budget = Budget.none;
        cache = Some (Filename.concat dir "cache");
      }
    in
    let go () =
      let s = Driver.run cfg in
      let oc = open_out_bin digest in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (digest_of_summary s))
    in
    { run = go; recover = go; artifacts = [ digest ] }
  in
  { name = "fuzz-warm"; prepare }

(* ---- canned scenario: the corpus file ----

   Corpus appends are journal appends through an appender that repairs
   the file once when it opens; recovery models a restarted fuzzer that
   knows the full set of counterexamples: load whatever survived (a torn
   tail drops), then append only the missing entries — nothing lost,
   nothing duplicated. *)

let scenario_corpus () =
  let entry i =
    {
      Corpus.kind = (if i mod 2 = 0 then Corpus.Kernel_case else Corpus.Asm_case);
      machine = "c240";
      seed = 100 + i;
      expect =
        (if i mod 3 = 0 then Corpus.Clean
         else Corpus.Violation (Printf.sprintf "check-%d" i));
      payload = Printf.sprintf "payload %d\nline two of %d" i i;
    }
  in
  let all = List.init 4 entry in
  let prepare ~dir =
    let path = Filename.concat dir "corpus.journal" in
    let append_missing () =
      let existing =
        match Corpus.load ~path with
        | Ok es -> es
        | Error _ ->
            (* no complete header ever landed: start the file over *)
            (try Sys.remove path with Sys_error _ -> ());
            []
      in
      let corpus = Corpus.appender ~path in
      List.iter
        (fun e -> if not (List.mem e existing) then Corpus.add corpus e)
        all
    in
    { run = append_missing; recover = append_missing; artifacts = [ path ] }
  in
  { name = "corpus"; prepare }

(* ---- canned scenario: supervised suite run ----

   The full Livermore suite under the supervisor, journal and cache on;
   recovery is [~resume].  By far the most expensive scenario — meant
   for strided sweeps from the CLI, not the unit-test sweep. *)

let scenario_suite () =
  let prepare ~dir =
    let path = Filename.concat dir "suite.journal" in
    let cache = Filename.concat dir "cache" in
    let go ~resume () =
      match Supervisor.run ~journal:path ~resume ~cache () with
      | Ok _ -> ()
      | Error e -> failwith ("suite: " ^ e)
    in
    { run = go ~resume:false; recover = go ~resume:true; artifacts = [ path ] }
  in
  { name = "suite"; prepare }

(* ---- canned scenario: macs_serve session ----

   A scripted modeling-service session: a server with a session journal
   and reply cache answers healthy simulate/hierarchy frames (one on a
   what-if DSL machine), a malformed frame, an over-budget frame that
   degrades to an estimate-tier answer, and an unknown preset.  Only
   cycle budgets appear — no wall-clock deadlines — so every reply byte
   is deterministic.  Recovery restarts a server on the same session
   file and re-sends every frame: completed items replay from the
   journal, missing ones recompute, and both the journal and the reply
   log must come out byte-identical to an uninterrupted session. *)

let serve_frames =
  [
    {|{"id":"f1","batch":[{"op":"simulate","kernel":7},{"op":"simulate","kernel":1,"machine":"c240;pipes.mul=2"}]}|};
    {|{"id":"f2","op":"hierarchy","kernel":3}|};
    (* malformed on purpose: typed bad-frame reply, nothing journaled *)
    {|{"id":"f3","batch":[|};
    (* over-budget on purpose: degrades to an estimate-tier answer *)
    {|{"id":"f4","budget_cycles":100,"op":"simulate","kernel":7}|};
    (* unknown preset on purpose: typed parse-failure reply *)
    {|{"id":"f5","op":"simulate","kernel":1,"machine":"no-such-preset"}|};
  ]

(* A scripted [macs_serve] session against a session journal and reply
   cache.  Every session append and cache publish is a {!Sink} boundary;
   recovery restarts a server on the same session file and re-sends every
   frame, so completed items must replay from the journal instead of
   re-executing.  Artifacts: the session journal and the reply log, both
   byte-identical to an uninterrupted session. *)
let scenario_serve () =
  let prepare ~dir =
    let session = Filename.concat dir "session.journal" in
    let replies = Filename.concat dir "replies.out" in
    let drive () =
      let config =
        {
          Serve.default_config with
          Serve.jobs = 1 (* in-order items: byte-identical journals *);
          session = Some session;
          cache_dir = Some (Filename.concat dir "cache");
        }
      in
      match Serve.create config with
      | Error why -> failwith ("serve: " ^ why)
      | Ok server ->
          let oc = open_out_bin replies in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              List.iter
                (fun frame ->
                  output_string oc (Serve.handle_line server frame);
                  output_char oc '\n')
                serve_frames)
    in
    { run = drive; recover = drive; artifacts = [ session; replies ] }
  in
  { name = "serve"; prepare }

(* Like [scenario_serve], but the frames travel through the connection
   supervisor over a real (socketpair) connection: deadline reads, the
   reply sequencer, and the per-connection close path all sit between
   the wire and [handle_line], and the drive ends with the graceful-
   drain journal compaction — so the sweep also arms the crash points
   inside {!Macs_util.Journal.write_atomic}'s two-phase publish.  A
   crash mid-compaction must leave either the old append-ordered
   journal or the new canonical one, never a torn file; recovery
   replays every frame from whichever survived and re-compacts, and
   the artifacts must come out byte-identical to an uninterrupted
   run's. *)
let scenario_serve_net () =
  let prepare ~dir =
    let session = Filename.concat dir "net-session.journal" in
    let replies = Filename.concat dir "net-replies.out" in
    let drive () =
      let config =
        {
          Serve.default_config with
          Serve.jobs = 1 (* in-order items: byte-identical journals *);
          session = Some session;
        }
      in
      match Serve.create config with
      | Error why -> failwith ("serve-net: " ^ why)
      | Ok server ->
          let sup = Net_sup.create server in
          let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close client with Unix.Unix_error _ -> ())
            (fun () ->
              (* the whole workload fits the socket buffer, so a single
                 thread can stage it, serve it, then read it back *)
              List.iter
                (fun frame ->
                  let line = frame ^ "\n" in
                  ignore
                    (Unix.write_substring client line 0 (String.length line)
                      : int))
                serve_frames;
              Unix.shutdown client Unix.SHUTDOWN_SEND;
              ignore (Net_sup.handle_connection sup srv : Net_sup.report);
              let oc = open_out_bin replies in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  let buf = Bytes.create 4096 in
                  let rec copy () =
                    match Unix.read client buf 0 4096 with
                    | 0 -> ()
                    | n ->
                        output_bytes oc (Bytes.sub buf 0 n);
                        copy ()
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> copy ()
                  in
                  copy ());
              (* graceful-drain epilogue: canonical journal compaction *)
              Serve.finish server)
    in
    { run = drive; recover = drive; artifacts = [ session; replies ] }
  in
  { name = "serve-net"; prepare }

let scenarios ?cells ?count () =
  [
    scenario_exec_shards ?cells ();
    scenario_corpus ();
    scenario_chaos ?cells ();
    scenario_fuzz ?count ();
    scenario_serve ();
    scenario_serve_net ();
  ]

let scenario_of_name ?cells ?count name =
  match name with
  | "exec-shards" -> Some (scenario_exec_shards ?cells ())
  | "corpus" -> Some (scenario_corpus ())
  | "chaos" -> Some (scenario_chaos ?cells ())
  | "fuzz-warm" -> Some (scenario_fuzz ?count ())
  | "serve" -> Some (scenario_serve ())
  | "serve-net" -> Some (scenario_serve_net ())
  | "suite" -> Some (scenario_suite ())
  | _ -> None

let cleanup = rm_rf
