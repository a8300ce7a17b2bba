(* The network chaos rung: an in-process storm of scripted hostile and
   healthy clients against a supervised TCP server, with three SLOs
   checked at the end:

   - no-crash / no-hang: the whole rung (storm, liveness probe, drain)
     completes inside its wall-clock deadline and the server thread
     never dies;
   - healthy clients unaffected: every reply a healthy client receives
     during the storm — and every reply to a duplicate retry — is
     byte-identical to the reply a solo run produced for the same
     frame;
   - journal identity: after graceful drain the storm session journal
     is byte-identical to the solo session journal, and a server
     restarted on the storm journal replays every frame byte-for-byte.

   The hostile cast: mid-frame disconnectors, a slow-loris trickler, a
   garbage-byte flooder (which must strike out), a duplicate-retry
   client, and a client that sends a frame and vanishes before the
   reply (EPIPE mid-reply).  Hostile clients only ever send garbage,
   incomplete frames, or duplicates of healthy frames — so the set of
   journaled records in the storm is exactly the solo set, which is
   what makes the byte-identity SLO decidable. *)

type violation = { slo : string; detail : string }

type summary = {
  log : string list;  (* chronological narrative *)
  violations : violation list;
  counters : Supervisor.counters;
}

let frame i =
  Printf.sprintf
    "{\"id\":\"chaos-%02d\",\"op\":\"validate\",\"machine\":\"c240\"}" i

let frames_of n = List.init n frame

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Client-side plumbing                                                *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  fd

let now = Unix.gettimeofday

(* Lock-step on an already-open socket: send each line, wait for its
   reply.  Does not close the socket. *)
let exchange_on fd lines =
  let r = Conn_io.reader ~idle_timeout_s:20.0 ~now ~limit:(1 lsl 20) fd in
  let w = Conn_io.writer fd in
  List.map
    (fun line ->
      match Conn_io.write_line ~write_timeout_s:10.0 ~now w line with
      | Error _ -> Error "write failed"
      | Ok () -> (
          match Conn_io.read_line r with
          | Conn_io.Line reply -> Ok reply
          | Conn_io.Eof -> Error "eof before reply"
          | Conn_io.Idle_timeout -> Error "no reply within 20s"
          | _ -> Error "broken reply stream"))
    lines

let exchange ~port lines =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> exchange_on fd lines)

(* Read replies until the server closes the connection (used by clients
   that do not care what they get back, only that the server answers
   and eventually hangs up). *)
let drain_replies fd =
  let r = Conn_io.reader ~idle_timeout_s:10.0 ~now ~limit:(1 lsl 20) fd in
  let rec go n =
    match Conn_io.read_line r with
    | Conn_io.Line _ -> go (n + 1)
    | _ -> n
  in
  go 0

let send_raw fd bytes =
  try ignore (Unix.write_substring fd bytes 0 (String.length bytes) : int)
  with Unix.Unix_error _ -> ()

(* --- the hostile cast ---------------------------------------------- *)

let midframe_killer ~port =
  let fd = connect port in
  send_raw fd "{\"id\":\"torn\",\"op\":\"val";
  Unix.close fd

let slow_loris ~port ~bytes ~tick_s =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let payload = "{\"id\":\"loris\"" in
      (try
         for i = 0 to min bytes (String.length payload) - 1 do
           send_raw fd (String.make 1 payload.[i]);
           Thread.delay tick_s
         done
       with Unix.Unix_error _ -> ());
      (* the server must cut us off with a frame-deadline rejection *)
      ignore (drain_replies fd : int))

let garbage_flooder ~port ~lines =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      for _ = 1 to lines do
        send_raw fd "]]]]garbage \x01\x02 not json at all\n"
      done;
      (* typed bad-frame replies until the strikes policy hangs up *)
      ignore (drain_replies fd : int))

let kill_mid_reply ~port line =
  let fd = connect port in
  send_raw fd (line ^ "\n");
  (* vanish before reading the reply: the server hits EPIPE and must
     contain it to this connection *)
  Unix.close fd

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let server_config ~session ~jobs =
  {
    Server.default_config with
    Server.jobs;
    session = Some session;
    default_budget_cycles = Some 200_000.0;
  }

(* Run [f port sup] against a freshly supervised server, then drain it.
   A server-thread death is reported as data (an SLO failure), never an
   exception out of the rung. *)
let with_server ~session ~net ~jobs f =
  match Server.create (server_config ~session ~jobs) with
  | Error why -> Error ("server create failed: " ^ why)
  | Ok server ->
      let sup = Supervisor.create ~net server in
      let sock = Supervisor.listen ~port:0 ~backlog:net.Supervisor.backlog () in
      let port = Supervisor.port_of sock in
      let server_err = ref None in
      let server_done = ref false in
      let th =
        Thread.create
          (fun () ->
            (try Supervisor.serve sup sock
             with exn -> server_err := Some (Printexc.to_string exn));
            server_done := true)
          ()
      in
      let result = f port sup in
      Supervisor.request_drain sup;
      let deadline = now () +. 30.0 in
      while (not !server_done) && now () < deadline do
        Thread.delay 0.02
      done;
      if !server_done then Thread.join th;
      let counters = Supervisor.counters_snapshot sup in
      Ok (result, counters, !server_err, !server_done)

let storm_net =
  {
    Supervisor.default_net_config with
    Supervisor.max_conns = 16;
    idle_timeout_ms = Some 5_000.0;
    read_timeout_ms = Some 400.0;
    write_timeout_ms = Some 5_000.0;
    max_strikes = 8;
    pipeline = 3;
    drain_ms = 5_000.0;
  }

let zero_counters () =
  {
    Supervisor.accepted = 0;
    rejected_at_accept = 0;
    conns_closed = 0;
    frames_read = 0;
    throttled_frames = 0;
    idle_timeouts = 0;
    loris_timeouts = 0;
    hung_up = 0;
    peer_closed = 0;
    write_stalls = 0;
    struck_out = 0;
    drained_conns = 0;
    accept_retries = 0;
  }

let run ?(seed = 0) ?(frames = 6) ~dir () =
  ignore seed;
  let log = ref [] in
  let violations = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let violate slo fmt =
    Printf.ksprintf
      (fun detail -> violations := { slo; detail } :: !violations)
      fmt
  in
  let lines = frames_of frames in
  let solo_session = Filename.concat dir "chaos-solo.session" in
  let storm_session = Filename.concat dir "chaos-storm.session" in

  (* --- phase 1: solo baseline ------------------------------------- *)
  say "phase 1: solo baseline (%d frames, one lock-step client)" frames;
  let solo_replies =
    match
      with_server ~session:solo_session ~net:storm_net ~jobs:1 (fun port _ ->
          exchange ~port lines)
    with
    | Error why ->
        violate "no-crash" "solo: %s" why;
        []
    | Ok (replies, _, err, done_) ->
        (match err with
        | Some e -> violate "no-crash" "solo server thread died: %s" e
        | None -> ());
        if not done_ then violate "no-hang" "solo server did not drain in 30s";
        replies
  in
  (match
     List.filter_map
       (function Error e -> Some e | Ok _ -> None)
       solo_replies
   with
  | [] -> ()
  | errs ->
      violate "healthy-unaffected" "solo run itself failed: %s"
        (String.concat "; " errs));
  let solo_journal = try read_file solo_session with _ -> "" in
  say "  solo journal: %d bytes" (String.length solo_journal);

  (* --- phase 2: the storm ------------------------------------------ *)
  say
    "phase 2: storm (3 healthy + dup-retry + 2 mid-frame killers + \
     slow-loris + garbage flood + kill-mid-reply)";
  let storm =
    with_server ~session:storm_session ~net:storm_net ~jobs:1 (fun port _ ->
        let healthy_slices =
          List.init 3 (fun c -> List.filteri (fun i _ -> i mod 3 = c) lines)
        in
        let healthy_results = Array.make 3 [] in
        let dup_results = ref [] in
        let pending = Atomic.make 0 in
        let spawn f =
          Atomic.incr pending;
          ignore
            (Thread.create
               (fun () ->
                 (try f () with _ -> ());
                 Atomic.decr pending)
               ())
        in
        List.iteri
          (fun c slice ->
            spawn (fun () -> healthy_results.(c) <- exchange ~port slice))
          healthy_slices;
        spawn (fun () -> dup_results := exchange ~port lines);
        spawn (fun () -> midframe_killer ~port);
        spawn (fun () -> midframe_killer ~port);
        spawn (fun () -> slow_loris ~port ~bytes:6 ~tick_s:0.15);
        spawn (fun () -> garbage_flooder ~port ~lines:20);
        spawn (fun () -> kill_mid_reply ~port (List.hd lines));
        let deadline = now () +. 25.0 in
        while Atomic.get pending > 0 && now () < deadline do
          Thread.delay 0.02
        done;
        let hung = Atomic.get pending in
        (* liveness probe: the server must still answer a fresh client *)
        let probe =
          match exchange ~port [ "{\"op\":\"ping\",\"id\":\"probe\"}" ] with
          | [ Ok _ ] -> true
          | _ -> false
        in
        (healthy_results, !dup_results, hung, probe))
  in
  (match storm with
  | Error why -> violate "no-crash" "storm: %s" why
  | Ok ((healthy_results, dup_results, hung, probe), counters, err, done_) ->
      (match err with
      | Some e -> violate "no-crash" "storm server thread died: %s" e
      | None -> ());
      if not done_ then violate "no-hang" "storm server did not drain in 30s";
      if hung > 0 then
        violate "no-hang" "%d storm client(s) still running after 25s" hung;
      if not probe then
        violate "no-hang" "server unresponsive to a fresh client post-storm";
      (* healthy clients byte-identical to solo *)
      let solo = Array.of_list solo_replies in
      Array.iteri
        (fun c replies ->
          List.iteri
            (fun j reply ->
              let idx = (j * 3) + c in
              let baseline =
                if idx < Array.length solo then solo.(idx)
                else Error "missing solo baseline"
              in
              match (reply, baseline) with
              | Ok storm_r, Ok solo_r when String.equal storm_r solo_r -> ()
              | Ok storm_r, Ok solo_r ->
                  violate "healthy-unaffected"
                    "healthy client %d frame %d differs from solo\n\
                    \  solo:  %s\n\
                    \  storm: %s" c idx solo_r storm_r
              | Error e, _ ->
                  violate "healthy-unaffected"
                    "healthy client %d frame %d failed in storm: %s" c idx e
              | _, Error e ->
                  violate "healthy-unaffected" "frame %d: %s" idx e)
            replies)
        healthy_results;
      (* duplicate retries replay byte-identically *)
      List.iteri
        (fun i reply ->
          match (reply, List.nth_opt solo_replies i) with
          | Ok dup_r, Some (Ok solo_r) when String.equal dup_r solo_r -> ()
          | Ok dup_r, Some (Ok solo_r) ->
              violate "healthy-unaffected"
                "dup retry of frame %d not byte-identical\n\
                \  solo: %s\n\
                \  dup:  %s" i solo_r dup_r
          | Error e, _ ->
              violate "healthy-unaffected" "dup retry of frame %d failed: %s" i
                e
          | _, None | _, Some (Error _) -> ())
        dup_results;
      say
        "  storm counters: %d accepted, %d hung-up, %d loris timeouts, %d \
         struck out, %d peer-closed-mid-reply"
        counters.Supervisor.accepted counters.Supervisor.hung_up
        counters.Supervisor.loris_timeouts counters.Supervisor.struck_out
        counters.Supervisor.peer_closed;
      if counters.Supervisor.struck_out = 0 then
        violate "healthy-unaffected"
          "garbage flooder was never struck out (strikes policy inert)";
      if counters.Supervisor.loris_timeouts = 0 then
        violate "healthy-unaffected"
          "slow-loris was never timed out (frame deadline inert)");

  (* --- phase 3: journal byte-identity ------------------------------ *)
  let storm_journal = try read_file storm_session with _ -> "" in
  if solo_journal <> "" && not (String.equal storm_journal solo_journal) then
    violate "journal-identity"
      "storm journal (%d bytes) differs from solo journal (%d bytes)"
      (String.length storm_journal)
      (String.length solo_journal)
  else
    say "phase 3: storm journal byte-identical to solo (%d bytes)"
      (String.length storm_journal);

  (* --- phase 4: restart on the storm journal and replay ------------ *)
  (match
     with_server ~session:storm_session ~net:storm_net ~jobs:1 (fun port _ ->
         exchange ~port lines)
   with
  | Error why -> violate "journal-identity" "resume: %s" why
  | Ok (replies, _, err, done_) ->
      (match err with
      | Some e -> violate "no-crash" "resume server thread died: %s" e
      | None -> ());
      if not done_ then violate "no-hang" "resume server did not drain in 30s";
      List.iteri
        (fun i reply ->
          match (reply, List.nth_opt solo_replies i) with
          | Ok r, Some (Ok s) when String.equal r s -> ()
          | Ok r, Some (Ok s) ->
              violate "journal-identity"
                "resumed replay of frame %d not byte-identical\n\
                \  solo:   %s\n\
                \  resume: %s" i s r
          | Error e, _ ->
              violate "journal-identity" "resumed replay of frame %d failed: %s"
                i e
          | _, None | _, Some (Error _) -> ())
        replies;
      let after = try read_file storm_session with _ -> "" in
      if solo_journal <> "" && not (String.equal after solo_journal) then
        violate "journal-identity"
          "journal changed across a pure-replay restart (%d -> %d bytes)"
          (String.length solo_journal) (String.length after)
      else
        say "phase 4: restart replayed all %d frames byte-identically" frames);

  (* --- phase 5: targeted overload + throttle envelopes ------------- *)
  let tiny_net =
    {
      storm_net with
      Supervisor.max_conns = 1;
      limits =
        {
          Limiter.max_frames_per_s = Some 4.0;
          max_bytes_per_s = None;
          burst_s = 1.0;
        };
    }
  in
  (match
     with_server
       ~session:(Filename.concat dir "chaos-tiny.session")
       ~net:tiny_net ~jobs:1
       (fun port _ ->
         (* parked client holds the only slot *)
         let parked = connect port in
         Fun.protect
           ~finally:(fun () ->
             try Unix.close parked with Unix.Unix_error _ -> ())
           (fun () ->
             Thread.delay 0.05;
             let refused =
               let fd = connect port in
               Fun.protect
                 ~finally:(fun () ->
                   try Unix.close fd with Unix.Unix_error _ -> ())
                 (fun () ->
                   let r =
                     Conn_io.reader ~idle_timeout_s:5.0 ~now ~limit:(1 lsl 20)
                       fd
                   in
                   match Conn_io.read_line r with
                   | Conn_io.Line reply -> Some reply
                   | _ -> None)
             in
             (* burst past the frame rate on the parked connection *)
             let replies =
               exchange_on parked
                 (List.init 8 (fun _ -> "{\"op\":\"ping\",\"id\":\"rate\"}"))
             in
             (refused, replies)))
   with
  | Error why -> violate "no-crash" "targeted: %s" why
  | Ok ((refused, replies), _, _, _) ->
      (match refused with
      | Some reply when contains reply "\"overloaded\"" ->
          say "phase 5: over-capacity client got a typed overloaded envelope"
      | Some reply ->
          violate "healthy-unaffected"
            "over-capacity client got an untyped reply: %s" reply
      | None ->
          violate "healthy-unaffected"
            "over-capacity client got no envelope before close");
      let throttled =
        List.exists
          (function
            | Ok r -> contains r "\"throttled\"" | Error _ -> false)
          replies
      in
      if throttled then say "  rate burst got a typed throttled envelope"
      else
        violate "healthy-unaffected"
          "an 8-frame burst past 4 frames/s was never throttled");

  let counters =
    match storm with Ok (_, c, _, _) -> c | Error _ -> zero_counters ()
  in
  { log = List.rev !log; violations = List.rev !violations; counters }
