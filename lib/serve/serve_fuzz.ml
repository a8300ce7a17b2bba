module G = QCheck.Gen

type violation = { case : int; input : string; problem : string }

(* ---- well-formed frame generator ---- *)

let id_gen =
  G.map
    (fun (a, b) -> Printf.sprintf "req-%d-%d" a b)
    (G.pair (G.int_bound 9999) (G.int_bound 9999))

let kernel_gen =
  G.frequency
    [
      (5, G.map (fun i -> Json.Num (float_of_int i)) (G.oneofl [ 1; 2; 3; 4; 6; 7; 8; 9; 10; 12 ]));
      (1, G.map (fun i -> Json.Num (float_of_int i)) (G.oneofl [ 0; 5; 11; 13; 99; -1 ]));
      ( 2,
        G.map
          (fun k -> Json.Str (Lfk.Codec.to_string k))
          (Convex_fuzz.Gen.fuzz_kernel_gen Convex_fuzz.Gen.Vector_profile) );
      (1, G.map (fun s -> Json.Str s) (G.oneofl [ "(not a kernel"; ""; "lfk7" ]));
    ]

let machine_gen =
  G.oneofl
    [
      None;
      Some "c240";
      Some "ideal";
      Some "no-refresh";
      Some "c240;banks=64";
      Some "c240;pipes.mul=2";
      Some "c240;vl=64;busy=4";
      Some "c240;t.mul.z=2";
      (* invalid on purpose: typed parse-failure replies *)
      Some "c240;banks=0";
      Some "c240;clock=-3";
      Some "c240;t.mul=1/2";
      Some "no-such-preset";
      Some "c240;vl=huge";
    ]

let faults_gen =
  G.oneofl
    [
      None;
      Some "bank-degraded";
      Some "dead-bank";
      Some "seed=7;window=100-600;degrade-bank=0*4;jitter=6";
      Some "port-spike=8/64";
      (* invalid on purpose *)
      Some "degrade-bank=99*4";
      Some "window=9-3";
      Some "gibberish";
    ]

let item_gen =
  let open G in
  let* op = frequency [ (4, pure "simulate"); (2, pure "hierarchy"); (1, pure "advise") ] in
  let* kernel = kernel_gen in
  let* machine = machine_gen in
  let* faults = faults_gen in
  let* fidelity = oneofl [ None; Some "cycle"; Some "tiered"; Some "wrong" ] in
  let* opt = oneofl [ None; Some "v61"; Some "packed"; Some "ideal" ] in
  let field name v fields =
    match v with None -> fields | Some s -> (name, Json.Str s) :: fields
  in
  pure
    (Json.Obj
       (("op", Json.Str op) :: ("kernel", kernel)
       :: (field "machine" machine @@ field "faults" faults
          @@ field "fidelity" fidelity @@ field "opt" opt [])))

(* validate sweeps all ten kernels, so it only appears with a tight cycle
   budget that degrades it to skips — bounding fuzz wall-clock *)
let validate_item_gen =
  let open G in
  let* machine = machine_gen in
  let* tol = oneofl [ None; Some 0.02; Some 0.5; Some (-1.0) ] in
  let fields =
    [ ("op", Json.Str "validate") ]
    @ (match machine with None -> [] | Some m -> [ ("machine", Json.Str m) ])
    @ match tol with None -> [] | Some t -> [ ("tol", Json.Num t) ]
  in
  pure (Json.Obj fields)

let work_frame_gen =
  let open G in
  let* id = id_gen in
  let* budget = oneofl [ 500.0; 5_000.0; 50_000.0 ] in
  let* shape = frequency [ (3, pure `Batch); (2, pure `Inline); (1, pure `Validate) ] in
  match shape with
  | `Inline ->
      let* item = item_gen in
      let fields =
        match item with Json.Obj fs -> fs | _ -> assert false
      in
      pure
        (Json.Obj
           (("id", Json.Str id) :: ("budget_cycles", Json.Num budget) :: fields))
  | `Validate ->
      let* item = validate_item_gen in
      pure
        (Json.Obj
           [
             ("id", Json.Str id);
             ("budget_cycles", Json.Num 500.0);
             ("batch", Json.Arr [ item ]);
           ])
  | `Batch ->
      let* items = list_size (int_range 0 3) item_gen in
      pure
        (Json.Obj
           [
             ("id", Json.Str id);
             ("budget_cycles", Json.Num budget);
             ("batch", Json.Arr items);
           ])

let frame_gen =
  let open G in
  let* frame =
    frequency
      [
        (8, work_frame_gen);
        (1, pure (Json.Obj [ ("op", Json.Str "ping") ]));
        (1, pure (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Str "s") ]));
      ]
  in
  pure (Json.to_string frame)

(* ---- mangled frames ---- *)

let pathological_gen =
  G.oneofl
    [
      "";
      "null";
      "42";
      "[1,2,3]";
      "\"just a string\"";
      "{";
      "{}";
      "{\"id\":}";
      "{\"id\":\"x\",\"op\":\"simulate\",\"kernel\":1e999}";
      "{\"id\":\"x\",\"op\":\"simulate\",\"kernel\":-}";
      String.concat "" (List.init 100 (fun _ -> "[")) ^ "1";
      "{\"id\":\"" ^ String.make 4096 'a' ^ "\"}";
      "{\"id\":\"x\",\"batch\":" ^ String.concat "" (List.init 80 (fun _ -> "[")) ^ "]}";
      "{\"id\":\"\\udc00\"}";
      "{\"id\":\"x\u{01}\"}";
    ]

let mutate_gen line =
  let open G in
  let n = String.length line in
  if n = 0 then pure line
  else
    let* choice = int_bound 4 in
    let* at = int_bound (n - 1) in
    match choice with
    | 0 -> pure (String.sub line 0 at) (* truncate *)
    | 1 ->
        let* byte = char in
        pure
          (String.sub line 0 at ^ String.make 1 byte
          ^ String.sub line at (n - at))
    | 2 ->
        let* byte = char in
        pure
          (String.sub line 0 at ^ String.make 1 byte
          ^ String.sub line (min n (at + 1)) (n - min n (at + 1)))
    | 3 ->
        (* duplicate a chunk *)
        let len = min 8 (n - at) in
        pure
          (String.sub line 0 at
          ^ String.sub line at len
          ^ String.sub line at (n - at))
    | _ -> pure (line ^ line)

let mangled_gen =
  let open G in
  frequency
    [
      (1, pathological_gen);
      ( 3,
        let* line = frame_gen in
        let* rounds = int_range 1 3 in
        let rec apply acc k =
          if k = 0 then pure acc else mutate_gen acc >>= fun m -> apply m (k - 1)
        in
        apply line rounds );
    ]

(* ---- the contract ---- *)

let check_reply ~input reply =
  match Json.parse reply with
  | Error m -> Some (Printf.sprintf "reply is not JSON (%s): %s" m reply)
  | Ok j -> (
      match Option.bind (Json.mem j "ok") Json.bool with
      | None -> Some ("reply has no boolean \"ok\": " ^ reply)
      | Some true -> None
      | Some false -> (
          match Json.mem j "error" with
          | None -> Some ("failed reply has no \"error\": " ^ reply)
          | Some e ->
              let nonempty f =
                match Option.bind (Json.mem e f) Json.str with
                | Some s -> s <> ""
                | None -> false
              in
              if nonempty "kind" && nonempty "message" then None
              else
                Some
                  (Printf.sprintf
                     "error for %S lacks a typed kind/message: %s" input reply)
          ))

let run_case server ~case input =
  let problems = ref [] in
  let note p = problems := { case; input; problem = p } :: !problems in
  (match Server.handle_line server input with
  | reply -> (
      Option.iter note (check_reply ~input reply);
      (* newline-delimited framing: a reply containing a raw newline
         would be read as two frames *)
      if String.contains reply '\n' then note "reply contains a raw newline";
      (* idempotency / determinism — except control frames, whose replies
         (live counters) are not requests *)
      let is_control =
        match Protocol.decode_frame ~max_batch:max_int input with
        | Ok (Protocol.Control _) -> true
        | _ -> false
      in
      if not is_control then
        match Server.handle_line server input with
        | reply' ->
            if reply <> reply' then
              note
                (Printf.sprintf "non-deterministic replay: %S then %S" reply
                   reply')
        | exception exn ->
            note ("replay raised " ^ Printexc.to_string exn))
  | exception exn -> note ("handle_line raised " ^ Printexc.to_string exn));
  (* the server must still be alive and sane *)
  (match Server.handle_line server "{\"op\":\"ping\"}" with
  | reply ->
      if Json.parse reply |> Result.is_error then
        note ("post-case ping got a non-JSON reply: " ^ reply)
  | exception exn -> note ("post-case ping raised " ^ Printexc.to_string exn));
  !problems

(* ---- connection-level rung ----

   The line rung above drives [Server.handle_line] directly; this one
   pushes scripted byte streams through a real (socketpair) connection
   under the {!Supervisor}, so framing, deadlines, the strikes counter,
   and the close path are all in the loop.  Scripts mix whole frames,
   interleaved duplicate keys, an oversized line followed by a valid
   frame, garbage lines, and an optional torn tail (partial frame, then
   disconnect). *)

type conn_action =
  | Whole of string  (* one complete frame line *)
  | Dup  (* resend the most recent non-control frame *)
  | Oversized_then of string  (* a line past the cap, then a valid frame *)
  | Garbage of string

let conn_script_gen =
  let open G in
  let* actions =
    list_size (int_range 1 6)
      (frequency
         [
           (4, map (fun f -> Whole f) frame_gen);
           (1, pure Dup);
           (1, map (fun f -> Oversized_then f) frame_gen);
           (1, map (fun g -> Garbage g) pathological_gen);
         ])
  in
  let* torn =
    frequency [ (2, pure None); (1, map (fun f -> Some f) frame_gen) ]
  in
  pure (actions, torn)

let is_control_line line =
  match Protocol.decode_frame ~max_batch:max_int line with
  | Ok (Protocol.Control _) -> true
  | _ -> false

(* Flatten a script into the byte stream to send, the list of complete
   lines in arrival order, and the (original, dup) reply-index pairs
   whose replies must be byte-identical. *)
let render_script ~oversize (actions, torn) =
  let buf = Buffer.create 512 in
  let lines = ref [] in
  let dups = ref [] in
  let push line =
    Buffer.add_string buf line;
    Buffer.add_char buf '\n';
    lines := line :: !lines
  in
  let last_dupable () =
    (* most recent complete frame that replays deterministically *)
    List.find_opt (fun l -> not (is_control_line l)) !lines
  in
  List.iter
    (fun action ->
      match action with
      | Whole f -> push f
      | Dup -> (
          match last_dupable () with
          | None -> ()
          | Some f ->
              let original =
                (* arrival index of the line being duplicated *)
                let rec find i = function
                  | [] -> assert false
                  | l :: _ when l == f -> i
                  | _ :: rest -> find (i - 1) rest
                in
                find (List.length !lines - 1) !lines
              in
              push f;
              dups := (original, List.length !lines - 1) :: !dups)
      | Oversized_then f ->
          push (String.make oversize 'x');
          push f
      | Garbage g -> push g)
    actions;
  let torn_bytes =
    match torn with
    | None -> 0
    | Some f ->
        let half = String.length f / 2 in
        Buffer.add_string buf (String.sub f 0 half);
        half
  in
  (Buffer.contents buf, List.rev !lines, List.rev !dups, torn_bytes)

let run_conn_case server ~case script =
  let input =
    (* the whole byte stream, for violation reports *)
    let bytes, _, _, _ = render_script ~oversize:64 script in
    bytes
  in
  let problems = ref [] in
  let note p = problems := { case; input; problem = p } :: !problems in
  let oversize = Server.max_frame_bytes_of server + 64 in
  let bytes, sent_lines, dups, torn_bytes =
    render_script ~oversize script
  in
  let sup = Supervisor.create server in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let report = ref None in
  let failure = ref None in
  let th =
    Thread.create
      (fun () ->
        match Supervisor.handle_connection sup srv with
        | r -> report := Some r
        | exception exn -> failure := Some exn)
      ()
  in
  (* write while the server consumes, so streams past the socket buffer
     cannot deadlock the single client thread *)
  let total = String.length bytes in
  let rec send off =
    if off < total then
      match Unix.write_substring client bytes off (total - off) with
      | n -> send (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          note "server hung up on a live script"
  in
  send 0;
  (try Unix.shutdown client Unix.SHUTDOWN_SEND
   with Unix.Unix_error _ -> ());
  let reply_buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let rec recv () =
    match Unix.read client chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes reply_buf chunk 0 n;
        recv ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  recv ();
  Thread.join th;
  (try Unix.close client with Unix.Unix_error _ -> ());
  (match !failure with
  | Some exn -> note ("handle_connection raised " ^ Printexc.to_string exn)
  | None -> ());
  let replies =
    Buffer.contents reply_buf |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  List.iteri
    (fun i reply ->
      match check_reply ~input:(Printf.sprintf "reply %d" i) reply with
      | Some p -> note p
      | None -> ())
    replies;
  (* one reply per complete line, in arrival order *)
  if List.length replies <> List.length sent_lines then
    note
      (Printf.sprintf "%d complete lines sent but %d replies"
         (List.length sent_lines) (List.length replies));
  (* interleaved duplicate keys: byte-identical replies *)
  let reply_at i = List.nth_opt replies i in
  List.iter
    (fun (original, dup) ->
      match (reply_at original, reply_at dup) with
      | Some a, Some b when a <> b ->
          note
            (Printf.sprintf
               "duplicate frame got a different reply: %S then %S" a b)
      | _ -> ())
    dups;
  (match !report with
  | None -> ()
  | Some r -> (
      let open Supervisor in
      match r.outcome with
      | Closed when torn_bytes = 0 -> ()
      | Hung_up _ when torn_bytes > 0 -> ()
      | outcome ->
          note
            (Printf.sprintf "unexpected outcome %s (torn tail: %d bytes)"
               (outcome_name outcome) torn_bytes)));
  (* the server itself must still be alive for the next connection *)
  (match Server.handle_line server "{\"op\":\"ping\"}" with
  | reply ->
      if Json.parse reply |> Result.is_error then
        note ("post-case ping got a non-JSON reply: " ^ reply)
  | exception exn -> note ("post-case ping raised " ^ Printexc.to_string exn));
  !problems

let run_conn ?(seed = 0) ?(count = 50) ~config () =
  match Server.create config with
  | Error why ->
      [ { case = -1; input = ""; problem = "server creation failed: " ^ why } ]
  | Ok server ->
      let violations = ref [] in
      for i = 0 to count - 1 do
        let rand = Random.State.make [| seed; 0x10000 + i |] in
        let script = G.generate1 ~rand conn_script_gen in
        violations := run_conn_case server ~case:i script @ !violations
      done;
      List.rev !violations

let run ?(seed = 0) ?(count = 100) ~config () =
  match Server.create config with
  | Error why ->
      [ { case = -1; input = ""; problem = "server creation failed: " ^ why } ]
  | Ok server ->
      let violations = ref [] in
      let drive ~offset gen =
        for i = 0 to count - 1 do
          let rand = Random.State.make [| seed; offset + i |] in
          let input = G.generate1 ~rand gen in
          violations := run_case server ~case:(offset + i) input @ !violations
        done
      in
      drive ~offset:0 frame_gen;
      drive ~offset:count mangled_gen;
      List.rev !violations
