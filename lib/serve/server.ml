type config = {
  jobs : int;
  max_batch : int;
  max_frame_bytes : int;
  default_deadline_ms : float option;
  default_budget_cycles : float option;
  session : string option;
  cache_dir : string option;
}

let default_config =
  {
    jobs = 1;
    max_batch = 64;
    max_frame_bytes = 1 lsl 20;
    default_deadline_ms = None;
    default_budget_cycles = None;
    session = None;
    cache_dir = None;
  }

type stats = {
  frames : int;
  control : int;
  rejected : int;
  replayed_frames : int;
  coalesced : int;
  items : int;
  replayed_items : int;
  decoded_items : int;
  degraded : int;
}

(* A frame being computed right now: concurrent arrivals of the same
   frame key park on the condition and share the owner's reply (or its
   exception) instead of computing — and journaling — twice. *)
type flight = {
  cond : Condition.t;
  mutable result : (string, exn) result option;
}

(* The replay index: a request line's exact bytes -> the reply the
   session answered it with.  A repeated line is found by one hash pass
   over its bytes and one compare against the stored line, so it skips
   the envelope scan, the frame-key digest and (read straight from a
   connection buffer) the copy of the line.  Only a line the full path
   answered as a session replay enters: every frame check has passed
   for it under this process's config, and its reply is the one a retry
   is owed, so entries are never removed.  Each entry is a distinct
   line of a journaled frame (the frame key digests the whole line), and
   its reply is the string the session already holds, so the index
   grows only as the session does and adds just the lines.  A cache hit
   does not enter: its reply lives on disk, and the cache counts every
   hit in its own [stats] section. *)
module Index = struct
  (* a line: a span of a read buffer, or a whole stored line *)
  type span = { b : Bytes.t; pos : int; len : int }

  module Tbl = Hashtbl.Make (struct
    type t = span

    (* multiply-xor over 8-byte words, then the tail bytes; the word
       order is the host's, which is fine for a key that never leaves
       the process *)
    let hash { b; pos; len } =
      let mix h w =
        let h = (h lxor w) * 0x100000001b3 in
        h lxor (h lsr 29)
      in
      let stop = pos + len in
      let h = ref len and i = ref pos in
      while !i + 8 <= stop do
        h := mix !h (Int64.to_int (Bytes.get_int64_ne b !i));
        i := !i + 8
      done;
      while !i < stop do
        h := mix !h (Char.code (Bytes.unsafe_get b !i));
        incr i
      done;
      !h

    let equal x y =
      let word i =
        Bytes.get_int64_ne x.b (x.pos + i) = Bytes.get_int64_ne y.b (y.pos + i)
      and byte i = Bytes.get x.b (x.pos + i) = Bytes.get y.b (y.pos + i) in
      let rec go i =
        if i + 8 <= x.len then word i && go (i + 8)
        else i >= x.len || (byte i && go (i + 1))
      in
      x.len = y.len && go 0
  end)

  type t = { mutex : Mutex.t; table : string Tbl.t }

  let create () = { mutex = Mutex.create (); table = Tbl.create 64 }

  let find t b ~pos ~len =
    Mutex.lock t.mutex;
    let reply = Tbl.find_opt t.table { b; pos; len } in
    Mutex.unlock t.mutex;
    reply

  let add t ~line reply =
    let key =
      { b = Bytes.unsafe_of_string line; pos = 0; len = String.length line }
    in
    Mutex.lock t.mutex;
    Tbl.replace t.table key reply;
    Mutex.unlock t.mutex
end

type t = {
  config : config;
  session : Session.t option;
  index : Index.t;
  cache : Convex_cache.Cache.t option;
  mutex : Mutex.t;  (** guards the counters *)
  mutable counters : stats;
  mutable stop : bool;
  flight_mutex : Mutex.t;  (** guards [flights] *)
  flights : (string, flight) Hashtbl.t;
  drain_deadline : (float * float) option Atomic.t;
      (** (absolute wall deadline, drain_ms) once draining *)
  mutable stats_extra : (unit -> (string * Json.t) list) option;
}

let create (config : config) =
  let session =
    Option.map (fun path -> Session.open_ path) config.session
  in
  match session with
  | Some (Error why) -> Error why
  | Some (Ok _) | None ->
      let session =
        match session with Some (Ok s) -> Some s | _ -> None
      in
      Ok
        {
          config;
          session;
          index = Index.create ();
          cache = Option.map Convex_cache.Cache.open_dir config.cache_dir;
          mutex = Mutex.create ();
          counters =
            {
              frames = 0;
              control = 0;
              rejected = 0;
              replayed_frames = 0;
              coalesced = 0;
              items = 0;
              replayed_items = 0;
              decoded_items = 0;
              degraded = 0;
            };
          stop = false;
          flight_mutex = Mutex.create ();
          flights = Hashtbl.create 16;
          drain_deadline = Atomic.make None;
          stats_extra = None;
        }

let bump t f =
  Mutex.lock t.mutex;
  t.counters <- f t.counters;
  Mutex.unlock t.mutex

let stats t =
  Mutex.lock t.mutex;
  let s = t.counters in
  Mutex.unlock t.mutex;
  s

let shutdown_requested t = t.stop
let max_frame_bytes_of t = t.config.max_frame_bytes

let drain t ~within_ms =
  let within_ms = Float.max 0.0 within_ms in
  ignore
    (Atomic.compare_and_set t.drain_deadline None
       (Some (Unix.gettimeofday () +. (within_ms /. 1000.0), within_ms))
      : bool);
  t.stop <- true

let draining t = Atomic.get t.drain_deadline <> None

let set_stats_extra t f = t.stats_extra <- Some f

let finish t =
  match t.session with None -> () | Some s -> Session.compact s

let stats_json t =
  let s = stats t in
  let int i = Json.Num (float_of_int i) in
  let server =
    Json.Obj
      [
        ("frames", int s.frames);
        ("control", int s.control);
        ("rejected", int s.rejected);
        ("replayed_frames", int s.replayed_frames);
        ("coalesced", int s.coalesced);
        ("items", int s.items);
        ("replayed_items", int s.replayed_items);
        ("decoded_items", int s.decoded_items);
        ("degraded", int s.degraded);
      ]
  in
  let cache =
    match t.cache with
    | None -> []
    | Some c ->
        let k = Convex_cache.Cache.counters c in
        [
          ( "cache",
            Json.Obj
              [
                ("hits", int k.Convex_cache.Cache.hits);
                ("misses", int k.Convex_cache.Cache.misses);
                ("stores", int k.Convex_cache.Cache.stores);
                ("quarantined", int k.Convex_cache.Cache.quarantined);
              ] );
        ]
  in
  let extra = match t.stats_extra with None -> [] | Some f -> f () in
  Json.Obj ((("server", server) :: cache) @ extra)

(* ------------------------------------------------------------------ *)

let oversized_reply t bytes =
  bump t (fun c -> { c with rejected = c.rejected + 1 });
  Protocol.error_reply
    (Protocol.perror ~kind:"frame-too-large"
       (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" bytes
          t.config.max_frame_bytes))

let cache_key frame_key =
  Convex_cache.Cache.key ~kind:"serve-reply" [ ("frame", frame_key) ]

(* One watchdog per frame, shared by every item in the batch: the
   deadline bounds the request, not each item.  While draining, the
   drain deadline rides along as a second wall-clock cap polled live —
   batches in flight when SIGTERM lands degrade to estimate-tier
   answers the moment the drain window closes, exactly like budget
   expiry. *)
let watchdog_of t ~deadline_ms ~budget_cycles =
  let first a b = match a with Some _ -> a | None -> b in
  let ms = first deadline_ms t.config.default_deadline_ms in
  let cycles = first budget_cycles t.config.default_budget_cycles in
  let budget =
    Convex_harness.Budget.make
      ?max_cycles:cycles
      ?max_wall_s:(Option.map (fun m -> m /. 1000.0) ms)
      ()
  in
  let base = Convex_harness.Budget.watchdog ~site:"macs_serve" budget in
  let drain_check ~cycle:_ =
    match Atomic.get t.drain_deadline with
    | Some (deadline, drain_ms) ->
        let now = Unix.gettimeofday () in
        if now > deadline then
          Some
            (Macs_util.Macs_error.budget_exceeded ~site:"macs_serve.drain"
               ~resource:"drain wall-clock ms" ~budget:drain_ms
               ~spent:(drain_ms +. ((now -. deadline) *. 1000.0)))
        else None
    | None -> None
  in
  match base with
  | None -> Some drain_check
  | Some base ->
      Some
        (fun ~cycle ->
          match base ~cycle with
          | Some e -> Some e
          | None -> drain_check ~cycle)

let internal_item ~site msg =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Protocol.error_json (Protocol.perror ~site ~kind:"internal" msg) );
    ]

(* A journaled item line is our own [Json.to_string] output, so it parses
   back to the value that printed it; one that does not was hand-edited,
   and is surfaced rather than crashing the batch. *)
let journaled_item line =
  match Json.parse line with
  | Ok j -> j
  | Error m ->
      internal_item ~site:"Server.reply" ("unreadable journaled item: " ^ m)

let reply_of_results ~id results =
  let estimate j = Option.bind (Json.mem j "tier") Json.str = Some "estimate" in
  ( Json.to_string
      (Json.Obj
         [
           ("id", Json.Str id);
           ("ok", Json.Bool true);
           ("results", Json.Arr results);
         ]),
    List.length (List.filter estimate results) )

(* Computed items stay [Json.t] from [Engine.eval_item] to the reply;
   only the items a restarted server takes from its journal are parsed. *)
let compute_batch t ~key ~id ~deadline_ms ~budget_cycles ~raw_items =
  let items =
    Array.of_list (List.map Protocol.decode_item (Lazy.force raw_items))
  in
  let n = Array.length items in
  let watchdog = watchdog_of t ~deadline_ms ~budget_cycles in
  let already i =
    match t.session with
    | None -> None
    | Some s ->
        Option.map
          (fun line -> Convex_exec.Executor.Done (journaled_item line))
          (Session.lookup_item s ~key ~index:i)
  in
  let eval i =
    let j = Engine.eval_item ?watchdog items.(i) in
    (match t.session with
    | Some s -> Session.record_item s ~key ~index:i (Json.to_string j)
    | None -> ());
    j
  in
  (* [replayed] counts the [already] hits over this batch's own indexes:
     the items a restarted server took from the journal *)
  let outcomes, replayed =
    if n = 0 then ([||], 0)
    else
      let o, st =
        Convex_exec.Executor.run
          ~jobs:(min t.config.jobs (max 1 n))
          ~already ~cells:n eval
      in
      (o, st.Convex_exec.Executor.replayed)
  in
  let results =
    Array.to_list
      (Array.map
         (function
           | Some (Convex_exec.Executor.Done j) -> j
           | Some (Convex_exec.Executor.Poisoned p) ->
               internal_item ~site:"Executor" p.Convex_exec.Executor.error
           | None -> internal_item ~site:"Executor" "cell never ran")
         outcomes)
  in
  let reply, degraded = reply_of_results ~id results in
  (match t.session with
  | Some s -> Session.record_frame s ~key ~id reply
  | None -> ());
  (match t.cache with
  | Some c -> Convex_cache.Cache.store c ~key:(cache_key key) reply
  | None -> ());
  bump t (fun c ->
      {
        c with
        frames = c.frames + 1;
        items = c.items + n;
        replayed_items = c.replayed_items + replayed;
        decoded_items = c.decoded_items + n;
        degraded = c.degraded + degraded;
      });
  reply

let note_replay t =
  bump t (fun c ->
      { c with frames = c.frames + 1; replayed_frames = c.replayed_frames + 1 })

let replay_of_span t b ~pos ~len = Index.find t.index b ~pos ~len

(* The key and both lookups need only the envelope: a frame's items are
   built and decoded only once the session and the cache have both
   missed, so a replayed frame costs the envelope scan, a digest, a
   lookup and the reply write.  A session hit also enters the replay
   index, which answers the line's next arrival without any of them. *)
let serve_batch t ~raw ~id ~deadline_ms ~budget_cycles ~raw_items =
  let key = Session.frame_key ~id ~payload:raw in
  let replay () =
    match
      Option.bind t.session (fun s -> Session.lookup_frame s ~key)
    with
    | Some reply as hit ->
        Index.add t.index ~line:raw reply;
        hit
    | None ->
        Option.bind t.cache (fun c ->
            Convex_cache.Cache.find c ~key:(cache_key key))
  in
  let replayed reply =
    note_replay t;
    reply
  in
  match replay () with
  | Some reply -> replayed reply
  | None -> (
      (* single flight: exactly one computation (and one journal append,
         one cache store) per frame key, however many connections the
         same retry lands on simultaneously *)
      Mutex.lock t.flight_mutex;
      match Hashtbl.find_opt t.flights key with
      | Some f ->
          while f.result = None do
            Condition.wait f.cond t.flight_mutex
          done;
          let r = Option.get f.result in
          Mutex.unlock t.flight_mutex;
          bump t (fun c ->
              {
                c with
                frames = c.frames + 1;
                replayed_frames = c.replayed_frames + 1;
                coalesced = c.coalesced + 1;
              });
          (match r with Ok reply -> reply | Error exn -> raise exn)
      | None ->
          let f = { cond = Condition.create (); result = None } in
          Hashtbl.replace t.flights key f;
          Mutex.unlock t.flight_mutex;
          let publish r =
            Mutex.lock t.flight_mutex;
            f.result <- Some r;
            Hashtbl.remove t.flights key;
            Condition.broadcast f.cond;
            Mutex.unlock t.flight_mutex
          in
          (* double-check now that we own the flight: a twin may have
             journaled the frame between our miss and our claim *)
          (match replay () with
          | Some reply ->
              publish (Ok reply);
              replayed reply
          | None -> (
              match
                compute_batch t ~key ~id ~deadline_ms ~budget_cycles
                  ~raw_items
              with
              | reply ->
                  publish (Ok reply);
                  reply
              | exception exn ->
                  publish (Error exn);
                  raise exn)))

let control_reply t ~id control =
  bump t (fun c -> { c with control = c.control + 1 });
  let id_field =
    match id with None -> [] | Some id -> [ ("id", Json.Str id) ]
  in
  match control with
  | Protocol.Ping ->
      Json.to_string
        (Json.Obj (id_field @ [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]))
  | Protocol.Stats ->
      Json.to_string
        (Json.Obj
           (id_field
           @ [ ("ok", Json.Bool true); ("stats", stats_json t) ]))
  | Protocol.Shutdown ->
      t.stop <- true;
      Json.to_string
        (Json.Obj
           (id_field @ [ ("ok", Json.Bool true); ("shutdown", Json.Bool true) ]))

let rejection t reply =
  bump t (fun c -> { c with rejected = c.rejected + 1 });
  (reply, true)

(* The full path: envelope scan, frame key, lookup or computation. *)
let serve_line t line =
  match Protocol.decode_envelope ~max_batch:t.config.max_batch line with
  | Error e -> rejection t (Protocol.error_reply e)
  | Ok (Protocol.Control { id; control }) -> (control_reply t ~id control, false)
  | Ok (Protocol.Batch { id; deadline_ms; budget_cycles; items }) -> (
      match
        serve_batch t ~raw:line ~id ~deadline_ms ~budget_cycles
          ~raw_items:items
      with
      | reply -> (reply, false)
      | exception (Macs_util.Sink.Crashed _ as exn) -> raise exn
      | exception ((Out_of_memory | Stack_overflow) as exn) -> raise exn
      | exception exn ->
          rejection t
            (Protocol.error_reply ~id
               (Protocol.perror ~site:"Server.handle_line" ~kind:"internal"
                  (Printexc.to_string exn))))

let handle_frame t line =
  let len = String.length line in
  if len > t.config.max_frame_bytes then (oversized_reply t len, true)
  else
    match replay_of_span t (Bytes.unsafe_of_string line) ~pos:0 ~len with
    | Some reply ->
        note_replay t;
        (reply, false)
    | None -> serve_line t line

let handle_line t line = fst (handle_frame t line)
