(* The real [macs_serve serve] process, driven by one client over one
   connection in a closed loop: a frame is sent only after the previous
   reply arrived.  Server resource use is read from outside via /proc. *)

type transport = Stdio | Tcp

type server = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  err : in_channel option;  (** the TCP server's stderr *)
  transport : transport;
}

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Read a whole file to EOF (/proc files report length 0). *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Process-wide user+sys CPU seconds (all threads), /proc/<pid>/stat
   fields 14 and 15 in clock ticks of 1/100 s. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields start after the parenthesised command name, at field 3 *)
  let from = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let status_kb pid field =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ k; v ] when k = field ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> Option.value ~default:0

let wait_exit pid ~within_s =
  let deadline = now_s () +. within_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let exchange s line =
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc;
  input_line s.ic

(* The TCP server logs "listening on" to stderr right after writing its
   port file.  Blocking on that line, rather than polling for the file,
   keeps timer wake-ups out of the set-up time. *)
let wait_listening err =
  let rec go () =
    match input_line err with
    | line when String.starts_with ~prefix:"macs_serve: listening on" line -> ()
    | _ -> go ()
    | exception End_of_file -> failwith "macs_serve exited before listening"
  in
  go ()

(* Servers not yet reaped; killed at exit if a run fails midway. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [exe serve] with its session journal (and, with [cache], its
   reply cache) in [dir] and return once it has answered a ping.  The
   stdio server's stderr goes to [dir]/server.err.  The TCP server's goes
   to a pipe, which holds the line or two it logs per connection until
   [stop] closes it. *)
let spawn ~exe ~transport ~cache ~dir =
  mkdir_p dir;
  let file = Filename.concat dir in
  let args =
    [ exe; "serve"; "--jobs"; "1"; "--session"; file "session.journal" ]
    @ if cache then [ "--cache"; file "cache" ] else []
  in
  let s =
    match transport with
    | Stdio ->
        let in_r, in_w = Unix.pipe ~cloexec:true () in
        let out_r, out_w = Unix.pipe ~cloexec:true () in
        let err =
          Unix.openfile (file "server.err")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
        in
        let pid = Unix.create_process exe (Array.of_list args) in_r out_w err in
        live := pid :: !live;
        List.iter Unix.close [ in_r; out_w; err ];
        {
          pid;
          ic = Unix.in_channel_of_descr out_r;
          oc = Unix.out_channel_of_descr in_w;
          err = None;
          transport;
        }
    | Tcp ->
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
        let err_r, err_w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process exe
            (Array.of_list (args @ [ "--port"; "0"; "--port-file"; file "port" ]))
            null null err_w
        in
        live := pid :: !live;
        Unix.close null;
        Unix.close err_w;
        let err_ic = Unix.in_channel_of_descr err_r in
        wait_listening err_ic;
        let port = int_of_string (String.trim (read_file (file "port"))) in
        let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.TCP_NODELAY true;
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        {
          pid;
          ic = Unix.in_channel_of_descr sock;
          oc = Unix.out_channel_of_descr sock;
          err = Some err_ic;
          transport;
        }
  in
  let pong = exchange s {|{"op":"ping","id":"ready"}|} in
  match Convex_serve.Json.parse pong with
  | Ok j when Convex_serve.Json.mem j "pong" <> None -> s
  | _ -> failwith ("macs_serve: unexpected ping reply: " ^ pong)

(* Close the connection (EOF on stdio; SIGTERM drain on TCP) and reap. *)
let stop s =
  (* on TCP both channels share the socket, closed once here *)
  close_out_noerr s.oc;
  if s.transport = Tcp then (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit s.pid ~within_s:20.0;
  live := List.filter (( <> ) s.pid) !live;
  if s.transport = Stdio then close_in_noerr s.ic;
  Option.iter close_in_noerr s.err

(* ---- host speed ---------------------------------------------------- *)

(* A 2-vCPU VM on a busy shared host (README.md) changes speed in phases
   that last from under a second to minutes; its slow phases took up to
   four times as long over the same fixed loop, with no steal time
   reported: wall and CPU time both stretch.  So the client measures the
   host's speed with a fixed reference task, on the CPU the server runs
   on, between short windows of frames, and scales every time measured in
   a window to the reference speed (see [scale]).  The task uses only the
   OCaml standard library, so no change to the program moves it. *)

let reference_bytes = Bytes.init 65536 (fun i -> Char.chr (i land 255))

(* String formatting, hashing, a hash table, MD5 over 64 KiB and a short
   list: the kinds of work a request does, in no program code. *)
let reference_task () =
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for _ = 1 to 4 do
    Hashtbl.reset h;
    for i = 0 to 199 do
      let k = Printf.sprintf "k%d-%d" i (i * 7) in
      Hashtbl.replace h k i;
      acc := !acc + Hashtbl.hash k
    done;
    for i = 0 to 199 do
      acc := !acc + Option.value ~default:0 (Hashtbl.find_opt h (Printf.sprintf "k%d-%d" i (i * 7)))
    done;
    ignore (Sys.opaque_identity (Digest.bytes reference_bytes));
    ignore (Sys.opaque_identity (List.init 500 (fun i -> i + !acc)))
  done

(* The reference task's time at the reference speed: its usual fastest
   time on the machine described in README.md. *)
let reference_nominal_s = 0.9e-3

(* Fastest of three runs of the task, so an interrupt in one is dropped. *)
let reference_s () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now_s () in
    reference_task ();
    best := Float.min !best (now_s () -. t0)
  done;
  !best

(* The factor that scales a time measured between two reference
   measurements [before] and [after] to the reference speed. *)
let scale ~before ~after = reference_nominal_s /. ((before +. after) /. 2.0)

(* [f ()] timed and scaled to the reference speed; returns its value,
   the scaled seconds and the raw seconds. *)
let scaled f =
  let before = reference_s () in
  let t0 = now_s () in
  let v = f () in
  let dt = now_s () -. t0 in
  let after = reference_s () in
  (v, dt *. scale ~before ~after, dt)

type timed = {
  frames : string array;
  replies : string array;
  latencies_s : float array;  (** per frame, scaled to the reference speed *)
  wall_s : float;  (** the frames' wall time, scaled *)
  cpu_s : float;  (** server user+sys CPU over the frames, scaled *)
  raw_latencies_s : float array;  (** as measured *)
  raw_wall_s : float;
  raw_cpu_s : float;
  reference_s : float array;  (** the reference task's time, per window boundary *)
  hwm_kb : int;  (** server VmHWM at the end of the timed phase *)
}

(* Frames are sent in windows of about this long; the host's speed is
   measured before and after each. *)
let window_s = 0.1

(* Closed loop over [count] frames: send [next ()], wait for the reply,
   repeat, in windows of [window_s] with the reference task run between
   them (while the server waits for its next frame).  A run gives up
   sending after [cap_s] seconds, so a badly slowed server still ends the
   run in time.  [keep frame reply] may substitute an equal stored reply
   for the one read, so long runs share rather than copy repeated
   replies. *)
let timed s ~count ~cap_s ~next ~keep =
  let frames = ref [] and replies = ref [] and lat = ref [] and raw_lat = ref [] in
  let wall = ref 0.0 and raw_wall = ref 0.0 and cpu = ref 0.0 and raw_cpu = ref 0.0 in
  let t_start = now_s () and sent = ref 0 in
  let before = ref (reference_s ()) in
  let refs = ref [ !before ] in
  while !sent < count && now_s () -. t_start < cap_s do
    let w_lat = ref [] in
    let cpu0 = cpu_s s.pid in
    let w0 = now_s () in
    let w1 = ref w0 in
    while !sent < count && !w1 -. w0 < window_s do
      let frame = next () in
      let t0 = now_s () in
      let reply = exchange s frame in
      let t1 = now_s () in
      w1 := t1;
      incr sent;
      w_lat := (t1 -. t0) :: !w_lat;
      frames := frame :: !frames;
      replies := keep frame reply :: !replies
    done;
    let w_cpu = cpu_s s.pid -. cpu0 in
    let after = reference_s () in
    let k = scale ~before:!before ~after in
    List.iter
      (fun l ->
        raw_lat := l :: !raw_lat;
        lat := (l *. k) :: !lat)
      (List.rev !w_lat);
    raw_wall := !raw_wall +. (!w1 -. w0);
    wall := !wall +. ((!w1 -. w0) *. k);
    raw_cpu := !raw_cpu +. w_cpu;
    cpu := !cpu +. (w_cpu *. k);
    refs := after :: !refs;
    before := after
  done;
  let arr l = Array.of_list (List.rev l) in
  {
    frames = arr !frames;
    replies = arr !replies;
    latencies_s = arr !lat;
    wall_s = !wall;
    cpu_s = !cpu;
    raw_latencies_s = arr !raw_lat;
    raw_wall_s = !raw_wall;
    raw_cpu_s = !raw_cpu;
    reference_s = arr !refs;
    hwm_kb = status_kb s.pid "VmHWM";
  }
