(* Deterministic crash-point injection for durable writes.

   Every write that matters for crash consistency — journal lines, shard
   cells, corpus entries, cache objects — funnels through this module as
   an explicit *write boundary*.  A disarmed sink just counts boundaries
   and performs the I/O; an armed sink simulates the process dying at a
   chosen boundary: it raises {!Crashed} after writing nothing ([Before]),
   a strict prefix ([Torn]) or all ([After]) of that boundary's bytes,
   and then latches *dead* so every later boundary raises immediately
   without touching the file system — a dead process writes nothing.

   The whole state machine sits behind one mutex so parallel workers see
   one global boundary sequence; the exception is raised only after the
   lock is released. *)

type mode = Before | Torn | After

let mode_name = function
  | Before -> "before"
  | Torn -> "torn"
  | After -> "after"

let mode_of_name = function
  | "before" -> Some Before
  | "torn" -> Some Torn
  | "after" -> Some After
  | _ -> None

exception Crashed of { site : string; point : int }

let () =
  Printexc.register_printer (function
    | Crashed { site; point } ->
        Some (Printf.sprintf "Sink.Crashed(point %d at %s)" point site)
    | _ -> None)

type state = {
  mutable counter : int;  (** boundaries seen since the last {!reset} *)
  mutable armed : (int * mode) option;
  mutable dead : bool;
  mutable fired : int;  (** boundary the latched crash fired at, 0 = none *)
}

let st = { counter = 0; armed = None; dead = false; fired = 0 }
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      st.counter <- 0;
      st.armed <- None;
      st.dead <- false;
      st.fired <- 0)

let arm ~at ~mode = locked (fun () -> st.armed <- Some (at, mode))
let boundaries () = locked (fun () -> st.counter)
let crashed () = locked (fun () -> st.dead)

(* One boundary: decide under the lock, do at most the permitted I/O,
   release, then raise if the process just "died".  [bytes] is what this
   boundary wants to write; [emit] performs a (possibly partial) write. *)
let boundary ~site ~bytes ~emit ~commit =
  let action =
    locked (fun () ->
        if st.dead then `Dead st.fired
        else begin
          st.counter <- st.counter + 1;
          match st.armed with
          | Some (at, mode) when at = st.counter ->
              st.dead <- true;
              st.fired <- st.counter;
              `Crash (st.counter, mode)
          | _ -> `Write
        end)
  in
  match action with
  | `Dead point -> raise (Crashed { site; point })
  | `Write ->
      emit bytes;
      commit ()
  | `Crash (point, mode) ->
      (match mode with
      | Before -> ()
      | Torn -> emit (String.sub bytes 0 (String.length bytes / 2))
      | After ->
          emit bytes;
          commit ());
      raise (Crashed { site; point })

let write oc ~site s =
  boundary ~site ~bytes:s
    ~emit:(fun b -> output_string oc b)
    ~commit:(fun () -> flush oc)

let rename ~site src dst =
  (* [bytes] is unused for a rename; [Torn] degenerates to [Before] —
     POSIX rename is atomic, there is no half-renamed state. *)
  boundary ~site ~bytes:""
    ~emit:(fun _ -> ())
    ~commit:(fun () -> Sys.rename src dst)

(* Durability helpers: not boundaries (an fsync changes no visible
   bytes), best-effort because not every file system supports them. *)

let fsync_out oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
