(* The macs_serve daemon: a crash-safe, deadline-bounded modeling service
   speaking newline-delimited JSON frames over stdio or a loopback TCP
   socket.  The serving logic lives in Convex_serve.Server, the
   connection supervision (timeouts, rate limits, graceful drain; many
   clients on TCP, one pre-accepted connection on stdio) in
   Convex_serve.Supervisor; this file is flag plumbing and signal
   wiring. *)

open Cmdliner
module Server = Convex_serve.Server
module Supervisor = Convex_serve.Supervisor
module Limiter = Convex_serve.Limiter
module Serve_fuzz = Convex_serve.Serve_fuzz
module Chaos_net = Convex_serve.Chaos_net

(* A peer hanging up mid-write must surface as EPIPE (a typed
   per-connection diagnostic), never as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ()

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains per batch (1 = deterministic in-order).")

let session_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "session" ] ~docv:"FILE"
        ~doc:
          "Session journal: completed items and frames are appended here, \
           so a killed server restarted on the same file resumes in-flight \
           batches without re-executing completed work.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Reply cache directory: frames are replayed byte-identically \
           across server restarts (idempotent retries).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default wall-clock deadline per frame; over-deadline items \
           degrade to estimate-tier answers.")

let budget_cycles_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-cycles" ] ~docv:"CYCLES"
        ~doc:
          "Default simulated-cycle budget per frame (the deterministic \
           deadline).")

let max_batch_arg =
  Arg.(
    value & opt int Server.default_config.Server.max_batch
    & info [ "max-batch" ] ~docv:"N" ~doc:"Items per frame before rejection.")

let max_frame_arg =
  Arg.(
    value & opt int Server.default_config.Server.max_frame_bytes
    & info [ "max-frame-bytes" ] ~docv:"BYTES"
        ~doc:"Request line length before rejection (never buffered whole).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "Serve on loopback TCP instead of stdio, many clients \
           concurrently under the connection supervisor.  Port 0 picks a \
           free port (see $(b,--port-file)).")

let port_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:
          "Write the bound TCP port here once listening (for scripts using \
           $(b,--port) 0).")

let backlog_arg =
  Arg.(
    value & opt int Supervisor.default_net_config.Supervisor.backlog
    & info [ "backlog" ] ~docv:"N" ~doc:"listen(2) backlog.")

let max_conns_arg =
  Arg.(
    value & opt int Supervisor.default_net_config.Supervisor.max_conns
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Live connections before new clients are refused at accept with a \
           typed overloaded envelope.")

let drain_ms_arg =
  Arg.(
    value & opt float Supervisor.default_net_config.Supervisor.drain_ms
    & info [ "drain-ms" ] ~docv:"MS"
        ~doc:
          "Graceful-drain window on SIGTERM/SIGINT: in-flight batches that \
           outlive it degrade to estimate-tier answers, exactly like budget \
           expiry.")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 60_000.0)
    & info [ "idle-timeout-ms" ] ~docv:"MS"
        ~doc:"Silence between frames before the connection is closed.")

let read_timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 10_000.0)
    & info [ "read-timeout-ms" ] ~docv:"MS"
        ~doc:
          "First byte of a frame to its newline (slow-loris defense: a \
           trickling client is never idle but still misses this).")

let write_timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 10_000.0)
    & info [ "write-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Whole-reply write deadline (stalled-reader defense); on expiry \
           the connection's replies are dropped, its journaled work kept.")

let max_frames_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-frames-per-s" ] ~docv:"RATE"
        ~doc:
          "Per-connection frame-rate token bucket; over-rate frames get a \
           typed throttled reply and are not processed.")

let max_bytes_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-bytes-per-s" ] ~docv:"RATE"
        ~doc:"Per-connection byte-rate token bucket.")

let max_strikes_arg =
  Arg.(
    value & opt int Supervisor.default_net_config.Supervisor.max_strikes
    & info [ "max-strikes" ] ~docv:"N"
        ~doc:
          "Consecutive whole-frame rejections before the connection is \
           closed (garbage-flood defense).")

let pipeline_arg =
  Arg.(
    value & opt int 0
    & info [ "pipeline" ] ~docv:"N"
        ~doc:
          "Frames of one connection computing concurrently; replies are \
           re-sequenced into arrival order, and a connection owes at most \
           N replies at once.  0 means follow $(b,--jobs).")

let config_of jobs session cache deadline budget max_batch max_frame =
  {
    Server.jobs;
    max_batch;
    max_frame_bytes = max_frame;
    default_deadline_ms = deadline;
    default_budget_cycles = budget;
    session;
    cache_dir = cache;
  }

let net_of ~jobs backlog max_conns drain_ms idle read_ write_ frames_rate
    bytes_rate max_strikes pipeline =
  {
    Supervisor.backlog;
    max_conns;
    drain_ms;
    idle_timeout_ms = idle;
    read_timeout_ms = read_;
    write_timeout_ms = write_;
    limits =
      {
        Limiter.max_frames_per_s = frames_rate;
        max_bytes_per_s = bytes_rate;
        burst_s = Limiter.default_config.Limiter.burst_s;
      };
    max_strikes;
    pipeline = (if pipeline <= 0 then max 1 jobs else pipeline);
    log_diagnostics = true;
  }

let serve_tcp sup ~net ~port ~port_file =
  let sock =
    Supervisor.listen ~port ~backlog:net.Supervisor.backlog ()
  in
  let bound = Supervisor.port_of sock in
  (match port_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "%d\n" bound;
      close_out oc);
  Printf.eprintf "macs_serve: listening on 127.0.0.1:%d\n%!" bound;
  Supervisor.serve sup sock;
  Printf.eprintf "macs_serve: drained\n%!"

let serve_cmd =
  let run jobs session cache deadline budget max_batch max_frame port
      port_file backlog max_conns drain_ms idle read_ write_ frames_rate
      bytes_rate max_strikes pipeline =
    ignore_sigpipe ();
    let config =
      config_of jobs session cache deadline budget max_batch max_frame
    in
    match Server.create config with
    | Error why ->
        Printf.eprintf "macs_serve: %s\n%!" why;
        exit 2
    | Ok server -> (
        let net =
          net_of ~jobs backlog max_conns drain_ms idle read_ write_
            frames_rate bytes_rate max_strikes pipeline
        in
        let sup = Supervisor.create ~net server in
        (* graceful drain on SIGTERM/SIGINT, on either transport *)
        let on_signal _ = Supervisor.request_drain sup in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        match port with
        | Some port -> serve_tcp sup ~net ~port ~port_file
        | None ->
            (* stdio: one pre-accepted connection, the same drain path *)
            ignore
              (Supervisor.handle_connection sup ~output:Unix.stdout Unix.stdin
                : Supervisor.report);
            Supervisor.drain_and_join sup)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve simulate/hierarchy/validate/advise batches over \
          newline-delimited JSON frames (stdio by default, as one supervised \
          connection; with $(b,--port), many concurrent TCP clients)")
    Term.(
      const run $ jobs_arg $ session_arg $ cache_arg $ deadline_arg
      $ budget_cycles_arg $ max_batch_arg $ max_frame_arg
      $ port_arg $ port_file_arg $ backlog_arg $ max_conns_arg $ drain_ms_arg
      $ idle_timeout_arg $ read_timeout_arg $ write_timeout_arg
      $ max_frames_rate_arg $ max_bytes_rate_arg $ max_strikes_arg
      $ pipeline_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Fuzz seed.")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N"
          ~doc:"Cases per rung (well-formed and mangled each).")
  in
  let run seed count =
    ignore_sigpipe ();
    let config =
      { Server.default_config with Server.default_budget_cycles = Some 50_000.0 }
    in
    let conn_count = max 1 (count / 2) in
    let violations =
      Serve_fuzz.run ~seed ~count ~config ()
      @ Serve_fuzz.run_conn ~seed ~count:conn_count ~config ()
    in
    if violations = [] then begin
      Printf.printf
        "serve-fuzz: %d well-formed + %d mangled frames: no crash, no hang, \
         every reply typed\n"
        count count;
      Printf.printf
        "serve-fuzz: %d connection scripts (torn tails, dup keys, oversized, \
         garbage): supervisor contract holds\n"
        conn_count
    end
    else begin
      List.iter
        (fun (v : Serve_fuzz.violation) ->
          Printf.printf "case %d: %s\n  input: %s\n" v.Serve_fuzz.case
            v.Serve_fuzz.problem
            (if String.length v.Serve_fuzz.input > 200 then
               String.sub v.Serve_fuzz.input 0 200 ^ "..."
             else v.Serve_fuzz.input))
        violations;
      Printf.printf "serve-fuzz: %d violation(s)\n" (List.length violations);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Protocol fuzzing rung: random well-formed and adversarially \
          mangled frames must never crash or wedge the server, and every \
          reply must be typed")
    Term.(const run $ seed_arg $ count_arg)

let chaos_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Script seed.")
  in
  let frames_arg =
    Arg.(
      value & opt int 6
      & info [ "frames" ] ~docv:"N" ~doc:"Healthy frames in the workload.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Scratch directory (default: a fresh temp directory).")
  in
  let run seed frames dir =
    ignore_sigpipe ();
    let dir =
      match dir with
      | Some d ->
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
      | None ->
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "macs-chaos-%d" (Unix.getpid ()))
          in
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
    in
    let summary = Chaos_net.run ~seed ~frames ~dir () in
    List.iter print_endline summary.Chaos_net.log;
    match summary.Chaos_net.violations with
    | [] ->
        Printf.printf
          "chaos-net: all SLOs held (no-crash, no-hang, healthy clients \
           byte-identical, journal byte-identical, typed envelopes)\n"
    | vs ->
        List.iter
          (fun (v : Chaos_net.violation) ->
            Printf.printf "SLO %s violated: %s\n" v.Chaos_net.slo
              v.Chaos_net.detail)
          vs;
        Printf.printf "chaos-net: %d violation(s)\n" (List.length vs);
        exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Network chaos rung: storm an in-process supervised server with \
          hostile clients (mid-frame disconnects, slow-loris, garbage \
          floods, dup retries, kill-mid-reply) and check the SLOs: no \
          crash, no hang, healthy clients byte-identical to a solo run, \
          session journal byte-identical after drain")
    Term.(const run $ seed_arg $ frames_arg $ dir_arg)

let blast_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server TCP port on loopback.")
  in
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("healthy", `Healthy);
               ("loris", `Loris);
               ("midframe", `Midframe);
               ("garbage", `Garbage);
               ("kill-mid-reply", `Killreply);
             ])
          `Healthy
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Client script: $(b,healthy) (lock-step frames, replies to \
             stdout), $(b,loris) (byte trickle), $(b,midframe) (half a \
             frame then hangup), $(b,garbage) (non-JSON flood), \
             $(b,kill-mid-reply) (frame sent, reply never read).")
  in
  let frames_arg =
    Arg.(
      value & opt int 6
      & info [ "frames" ] ~docv:"N"
          ~doc:"Healthy frames to send (deterministic workload).")
  in
  let run port mode frames =
    ignore_sigpipe ();
    match mode with
    | `Healthy ->
        let replies = Chaos_net.exchange ~port (Chaos_net.frames_of frames) in
        let failed = ref 0 in
        List.iteri
          (fun i -> function
            | Ok reply -> print_endline reply
            | Error why ->
                incr failed;
                Printf.eprintf "blast: frame %d: %s\n%!" i why)
          replies;
        if !failed > 0 then exit 1
    | `Loris -> Chaos_net.slow_loris ~port ~bytes:6 ~tick_s:0.15
    | `Midframe -> Chaos_net.midframe_killer ~port
    | `Garbage -> Chaos_net.garbage_flooder ~port ~lines:20
    | `Killreply ->
        Chaos_net.kill_mid_reply ~port (List.hd (Chaos_net.frames_of 1))
  in
  Cmd.v
    (Cmd.info "blast"
       ~doc:
         "Scripted client against an external macs_serve TCP server: the \
          healthy workload or one hostile posture (for smoke tests that \
          storm, kill -9, and resume a real server process)")
    Term.(const run $ port_arg $ mode_arg $ frames_arg)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "macs_serve" ~version:"1.0.0"
      ~doc:
        "Crash-safe, deadline-bounded MACS modeling service over a \
         validated machine-description DSL"
  in
  exit
    (Cmd.eval (Cmd.group ~default info [ serve_cmd; fuzz_cmd; chaos_cmd; blast_cmd ]))
