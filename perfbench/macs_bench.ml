(* One benchmark run of macs_serve:

     macs_bench --workload W --seed N --seconds S --trace 0|1

   spawns the real server, times a closed loop of seeded frames over one
   connection, checks every reply against an in-process [Server.handle_line]
   run of the same frames, and prints one JSON result as its last line:
   end-to-end metrics with --trace 0, per-layer metrics (from the traced
   in-process mirror, see trace.ml) with --trace 1. *)

module Json = Convex_serve.Json
module Server = Convex_serve.Server

(* Set-ups per run, reported as their median.  A set-up restarts the
   server over the journal and cache the warm-up left and lasts until it
   answers a ping, so it includes [Session.open_] replaying the warm-up. *)
let setups = 11

(* Frames per second of each workload's timed phase on the reference
   machine (see README.md).  They size the timed phase, which then sends
   the same frames on every build of the program: whole blocks, about
   [--seconds] long there. *)
let nominal_fps = function
  | Gen.Sim_stdio -> 125.0
  | Gen.Analyze_tcp -> 58.0
  | Gen.Replay_tcp -> 2600.0

let timed_frames w (stream : Gen.stream) ~seconds =
  let blocks = Float.round (seconds *. nominal_fps w /. float stream.block_frames) in
  stream.block_frames * max 1 (int_of_float blocks)

(* A timed phase gives up after this many times [--seconds], so that a
   badly slowed program still ends its run in time. *)
let cap_factor = 3.0

(* An untraced run serves every [check_stride]-th timed frame in-process
   and compares the replies byte for byte.  A reply depends only on its
   frame, so a frame can be checked apart from its neighbours, and a
   quarter keeps a run within its time budget; every reply is still
   checked for ok items, and every replay against its warm-up original.
   A traced run checks every frame. *)
let check_stride = 4

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float (n - 1) in
    let i = int_of_float x in
    let j = min (n - 1) (i + 1) in
    sorted.(i) +. ((x -. float i) *. (sorted.(j) -. sorted.(i)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median l = quantile (sorted (Array.of_list l)) 0.5

let frame_failed reply =
  match Json.parse reply with
  | Error _ -> true
  | Ok j ->
      Json.mem j "ok" <> Some (Json.Bool true)
      ||
      match Option.bind (Json.mem j "results") Json.arr with
      | None -> true
      | Some rs ->
          List.exists
            (fun r ->
              Json.mem r "ok" <> Some (Json.Bool true)
              || Json.mem r "degraded" <> None)
            rs

let digest replies =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map Digest.string replies)))

(* (kernel, machine spec, opt) of every item in [frames]. *)
let items_of frames =
  List.concat_map
    (fun f ->
      let j = Result.get_ok (Json.parse f) in
      List.map
        (fun it ->
          let s k d = Option.value (Option.bind (Json.mem it k) Json.str) ~default:d in
          ( Option.get (Option.bind (Json.mem it "kernel") Json.int),
            s "machine" "c240",
            s "opt" "v61" ))
        (Option.value (Option.bind (Json.mem j "batch") Json.arr) ~default:[]))
    frames

let distinct l =
  let h = Hashtbl.create 64 in
  List.filter
    (fun x ->
      if Hashtbl.mem h x then false
      else (
        Hashtbl.add h x ();
        true))
    l

(* Measured cost of one simulated cycle at each fidelity, on up to 24 of
   the workload's own (kernel, machine, opt) items: the tiered fast path
   (the protocol default) and the cycle stepper advise still drives. *)
let fidelity_probe items =
  let items = List.filteri (fun i _ -> i < 24) (distinct items) in
  let run fidelity =
    List.fold_left
      (fun (ns, cycles) (k, spec, opt) ->
        let machine = Result.get_ok (Convex_dsl.Machine_dsl.parse spec) in
        let opt =
          List.find
            (fun o -> Fcc.Opt_level.name o = opt)
            Fcc.Opt_level.[ v61; ideal; loads_first; packed ]
        in
        let c = Fcc.Compiler.compile ~opt (Lfk.Kernels.find k) in
        let layout = Macs.Hierarchy.layout_of c in
        let t0 = Monotonic_clock.now () in
        let m =
          Convex_vpsim.Measure.run_exn ~machine ~layout ~fidelity
            ~flops_per_iteration:c.Fcc.Compiler.flops_per_iteration
            c.Fcc.Compiler.job
        in
        let t1 = Monotonic_clock.now () in
        (ns +. Int64.to_float (Int64.sub t1 t0), cycles +. m.Convex_vpsim.Measure.cycles))
      (0.0, 0.0) items
  in
  let per_cycle (ns, cycles) = if cycles > 0.0 then ns /. cycles else 0.0 in
  ( per_cycle (run Convex_vpsim.Fastpath.Tiered),
    per_cycle (run Convex_vpsim.Fastpath.Cycle),
    List.length items )

let fresh_server ~cache dir =
  Wire.mkdir_p dir;
  match
    Server.create
      {
        Server.default_config with
        session = Some (Filename.concat dir "session.journal");
        cache_dir = (if cache then Some (Filename.concat dir "cache") else None);
      }
  with
  | Ok s -> s
  | Error why -> failwith why

let print_result ~correct ~attempted ~failed metrics =
  let m =
    Json.Obj
      (List.map
         (fun (n, v, u) ->
           (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
         metrics)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float attempted));
            ("failed", Json.Num (float failed));
            ("metrics", m);
          ]))

let share_layers =
  [ "protocol.decode"; "session.key"; "session.lookup"; "session.items_done";
    "cache.find"; "exec.run"; "engine.eval"; "fcc.compile"; "core.layout";
    "vpsim.measure"; "core.hierarchy"; "core.advise"; "json.encode";
    "session.append"; "cache.store"; "server.handle_line" ]

let exe = "_build/default/bin/macs_serve.exe"
let out = "perfbench/_run"

let print_checks checks =
  List.iter
    (fun (c, ok) -> Printf.printf "check %-58s %s\n" c (if ok then "ok" else "FAILED"))
    checks

let print_metrics metrics =
  List.iter (fun (name, v, u) -> Printf.printf "  %-36s %14.6f %s\n" name v u) metrics

(* Compute the warm-up frames on a fresh server in [dir], then stop it;
   return the replies and the seconds they took. *)
let warm_up (stream : Gen.stream) ~transport ~cache ~dir =
  let s = Wire.spawn ~exe ~transport ~cache ~dir in
  let t0 = Wire.now_s () in
  let warm = Array.map (Wire.exchange s) stream.warmup in
  let dt = Wire.now_s () -. t0 in
  Wire.stop s;
  (warm, dt)

(* Restart the server over [dir] [setups] times and keep the last one;
   return it with every set-up time, scaled to the reference speed and as
   measured, in run order. *)
let set_up ~transport ~cache ~dir =
  let rec go i times =
    let s, scaled, raw = Wire.scaled (fun () -> Wire.spawn ~exe ~transport ~cache ~dir) in
    let times = (scaled, raw) :: times in
    if i = setups then (s, List.rev times)
    else (
      Wire.stop s;
      go (i + 1) times)
  in
  go 1 []

(* Frames not fully ok; replies shared between frames are parsed once. *)
let count_failed replies =
  let status = Hashtbl.create 64 in
  Array.fold_left
    (fun acc r ->
      let f =
        match Hashtbl.find_opt status r with
        | Some f -> f
        | None ->
            let f = frame_failed r in
            Hashtbl.add status r f;
            f
      in
      if f then acc + 1 else acc)
    0 replies

let end_to_end_metrics (t : Wire.timed) ~ipf ~setup_s ~failed =
  let n = Array.length t.frames in
  let lat = sorted t.latencies_s in
  let items = ipf *. float n in
  [
    ("throughput_items_per_s", items /. t.wall_s, "items/s");
    ("latency_p50_ms", 1000.0 *. quantile lat 0.5, "ms");
    ("latency_p90_ms", 1000.0 *. quantile lat 0.9, "ms");
    ("server_cpu_ms_per_item", 1000.0 *. t.cpu_s /. items, "ms/item");
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", float t.hwm_kb /. 1024.0, "MB");
    ("ok_ratio", float (n - failed) /. float n, "ratio");
  ]

(* Per-layer metrics of the traced mirror over the timed frames, plus the
   check that the trace confirms the workload's purpose. *)
let layer_metrics w (m : Trace.mirror) ~frames ~e2e_p50_s ~ref_ns ~replayed ~open_ms =
  let n = float (Array.length frames) in
  let layers = Trace.layers ~keep:(fun f -> f >= 0) m.rec_ in
  let l name =
    Option.value
      (List.find_opt (fun (x : Trace.layer) -> x.lname = name) layers)
      ~default:{ Trace.lname = name; calls = 0; total_ns = 0.0; self_ns = 0.0 }
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_frame name = (l name).total_ns /. 1000.0 /. n in
  let per_call ?(scale = 1000.0) name =
    let x = l name in
    ratio (x.total_ns /. scale) (float x.calls)
  in
  let hl = l "server.handle_line" in
  let ref_mean_us = Array.fold_left ( +. ) 0.0 ref_ns /. 1000.0 /. n in
  let layer_us = (hl.total_ns -. hl.self_ns) /. 1000.0 /. n in
  let hits, lookups =
    match m.cache with
    | None -> (0, 0)
    | Some c ->
        let k = Convex_cache.Cache.counters c in
        Convex_cache.Cache.(k.hits, k.hits + k.misses)
  in
  let tiered_ns, cycle_ns, probed = fidelity_probe (items_of (Array.to_list frames)) in
  let largest =
    match List.filter (fun (x : Trace.layer) -> x.lname <> "server.handle_line") layers with
    | x :: _ -> x.lname
    | [] -> "-"
  in
  let purpose =
    match w with
    | Gen.Sim_stdio ->
        ("vpsim.measure is the largest layer (self time)", largest = "vpsim.measure")
    | Gen.Analyze_tcp ->
        ("core.advise is the largest layer (self time)", largest = "core.advise")
    | Gen.Replay_tcp ->
        ( "timed phase spends no time in fcc, core or vpsim",
          List.for_all
            (fun (x : Trace.layer) ->
              not
                (List.exists
                   (fun p -> String.starts_with ~prefix:p x.lname)
                   [ "fcc."; "core."; "vpsim." ]))
            layers )
  in
  Printf.printf
    "layer self time over %.0f timed frames (fidelity probe: %d items; cache \
     hits %d of %d lookups):\n"
    n probed hits lookups;
  List.iter
    (fun (x : Trace.layer) ->
      Printf.printf "  %-20s calls %8d  total %12.1f us  self %12.1f us  share %6.3f\n"
        x.lname x.calls (x.total_ns /. 1000.0) (x.self_ns /. 1000.0)
        (ratio x.self_ns hl.total_ns))
    layers;
  let metrics =
    [
      ( "transport.us_per_frame",
        (1e6 *. e2e_p50_s) -. (quantile (sorted ref_ns) 0.5 /. 1000.0),
        "us" );
      ("protocol.decode_us_per_frame", per_frame "protocol.decode", "us");
      ("session.key_us_per_frame", per_frame "session.key", "us");
      ("session.lookup_us_per_frame", per_frame "session.lookup", "us");
      ("session.items_done_us_per_frame", per_frame "session.items_done", "us");
      ( "session.append_us_per_item",
        ratio ((l "session.append").total_ns /. 1000.0) (float (l "engine.eval").calls),
        "us" );
      ("session.open_ms", open_ms, "ms");
      ("json.encode_us_per_frame", per_frame "json.encode", "us");
      ( "exec.overhead_us_per_batch",
        ratio ((l "exec.run").self_ns /. 1000.0) (float (l "exec.run").calls),
        "us" );
      ("cache.find_us_per_frame", per_frame "cache.find", "us");
      ("cache.store_us_per_frame", per_frame "cache.store", "us");
      ("cache.hit_ratio", ratio (float hits) (float lookups), "ratio");
      ("server.replayed_frames_ratio", replayed, "ratio");
      ("fcc.compile_us_per_item", per_call "fcc.compile", "us");
      ("vpsim.measure_us_per_item", per_call "vpsim.measure", "us");
      ("vpsim.tiered_ns_per_sim_cycle", tiered_ns, "ns");
      ("vpsim.cycle_ns_per_sim_cycle", cycle_ns, "ns");
      ("core.bound_us_per_item", per_call "core.layout", "us");
      ("core.hierarchy_ms_per_item", per_call ~scale:1e6 "core.hierarchy", "ms");
      ("core.advise_ms_per_item", per_call ~scale:1e6 "core.advise", "ms");
      ("engine.eval_us_per_item", per_call "engine.eval", "us");
      ("server.handle_line_us_per_frame", ref_mean_us, "us");
      ("server.unattributed_us_per_frame", ref_mean_us -. layer_us, "us");
      ("trace.overhead_ratio", ratio (hl.total_ns /. 1000.0 /. n) ref_mean_us, "ratio");
    ]
    @ List.map
        (fun name -> ("share." ^ name, ratio (l name).self_ns hl.total_ns, "ratio"))
        share_layers
  in
  (metrics, purpose)

let run ~workload ~seed ~seconds ~trace =
  let w = List.assoc workload Gen.workloads in
  let stream = Gen.stream w ~seed in
  let transport = if w = Gen.Sim_stdio then Wire.Stdio else Wire.Tcp in
  (* sim-stdio items never repeat, so a reply cache could only add its two
     fsyncs per frame, which on a disk-backed checkout swamp the program *)
  let cache = w <> Gen.Sim_stdio in
  let run_dir = Filename.concat out (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  Printf.printf "workload %s seed %d: %s, 1 client, closed loop, --session%s under %s\n%!"
    workload seed
    (if transport = Wire.Stdio then "stdin/stdout pipes" else "one loopback TCP connection")
    (if cache then " and --cache" else "")
    run_dir;
  let dir = Filename.concat run_dir "server" in
  let warm, warm_s = warm_up stream ~transport ~cache ~dir in
  let s, setup_times = set_up ~transport ~cache ~dir in
  (* timed phase; a replayed frame must come back as its warm-up reply *)
  let replay_mismatch = ref 0 in
  let keep frame reply =
    let rec find i =
      if i = Array.length warm then reply
      else if stream.warmup.(i) != frame then find (i + 1)
      else if String.equal reply warm.(i) then warm.(i)
      else (
        incr replay_mismatch;
        reply)
    in
    find 0
  in
  let count = timed_frames w stream ~seconds in
  let t = Wire.timed s ~count ~cap_s:(cap_factor *. seconds) ~next:stream.next ~keep in
  Wire.stop s;
  let n = Array.length t.frames in
  let items = n * stream.items_per_frame in
  let failed = count_failed t.replies in
  Printf.printf "generator: %s\n%!" (stream.describe ());
  (* the same frames through an in-process server; in a traced run the
     traced mirror serves each frame right after it, so both see the same
     machine state *)
  let ref_server = fresh_server ~cache (Filename.concat run_dir "reference") in
  let mirror_dir = Filename.concat run_dir "mirror" in
  let mirror = if trace then Some (Trace.mirror ~cache ~dir:mirror_dir) else None in
  let mirror_same = ref true in
  let serve ~frame f =
    let t0 = Monotonic_clock.now () in
    let r = Server.handle_line ref_server f in
    let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    Option.iter
      (fun m -> if not (String.equal (Trace.handle_line m ~frame f) r) then mirror_same := false)
      mirror;
    (r, dt)
  in
  let ref_warm = Array.mapi (fun i f -> fst (serve ~frame:(-1 - i) f)) stream.warmup in
  (* Session.open_ on the warm-up journal, which every set-up replays *)
  let open_ms =
    if not trace then 0.0
    else
      median
        (List.init 5 (fun _ ->
             let t0 = Monotonic_clock.now () in
             ignore (Convex_serve.Session.open_ (Filename.concat mirror_dir "session.journal"));
             Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6))
  in
  Option.iter (fun (m : Trace.mirror) -> Option.iter Convex_cache.Cache.reset_counters m.cache) mirror;
  let before = Server.stats ref_server in
  let stride = if trace then 1 else check_stride in
  let sample a = List.filteri (fun i _ -> i mod stride = 0) (Array.to_list a) in
  let ref_timed = List.mapi (fun i f -> serve ~frame:(i * stride) f) (sample t.frames) in
  let after = Server.stats ref_server in
  let ref_ns = Array.of_list (List.map snd ref_timed) in
  let wire_digest = digest (Array.to_list warm @ sample t.replies) in
  let ref_digest = digest (Array.to_list ref_warm @ List.map fst ref_timed) in
  (* workload self-checks *)
  let regen = Gen.stream w ~seed in
  let same_bytes =
    Array.for_all2 String.equal stream.warmup regen.warmup
    && Array.for_all (fun f -> String.equal f (regen.next ())) t.frames
  in
  let unique_triples =
    w <> Gen.Sim_stdio
    ||
    let tr = items_of (Array.to_list stream.warmup @ Array.to_list t.frames) in
    List.length (distinct tr) = List.length tr
  in
  let checks =
    [
      ("reply digest equals in-process Server.handle_line digest", wire_digest = ref_digest);
      ("replayed frames byte-identical to their warm-up replies", !replay_mismatch = 0);
      ("warm-up replies all ok", count_failed warm = 0);
      ("same seed gives the same frame bytes", same_bytes);
      ("no repeated (kernel, machine spec, opt) triple", unique_triples);
    ]
  in
  let ipf = float stream.items_per_frame in
  Printf.printf "reply digest %s (wire) %s (in-process) over %d of %d timed frames\n"
    wire_digest ref_digest (Array.length ref_ns) n;
  if n < count then
    Printf.printf "timed phase cut after %.0f s: %d of %d frames sent\n" (cap_factor *. seconds) n count;
  Printf.printf
    "%d frames (%d items) in %.2f s (%.2f s scaled); latency samples %d, %d beyond \
     p90; failed_ratio %d/%d\n"
    n items t.raw_wall_s t.wall_s n
    (n - int_of_float (ceil (0.9 *. float n)))
    failed n;
  let refs = sorted t.reference_s in
  let raw_lat = sorted t.raw_latencies_s in
  Printf.printf
    "warm-up: %d frames in %.3f s\n\
     set-up s (%d restarts over the warm-up state, in run order; scaled/as measured):%s\n\
     host speed: reference task %.3f ms nominal; over %d window boundaries min %.3f, \
     median %.3f, max %.3f ms\n\
     as measured: %.1f items/s, p50 %.4f ms, p90 %.4f ms, server CPU %.6f ms/item\n\
     in-process Server.handle_line: %.4f ms/item (as measured)\n"
    (Array.length stream.warmup) warm_s (List.length setup_times)
    (String.concat ""
       (List.map (fun (a, b) -> Printf.sprintf " %.4f/%.4f" a b) setup_times))
    (1000.0 *. Wire.reference_nominal_s) (Array.length refs)
    (1000.0 *. refs.(0)) (1000.0 *. quantile refs 0.5)
    (1000.0 *. refs.(Array.length refs - 1))
    (float items /. t.raw_wall_s)
    (1000.0 *. quantile raw_lat 0.5) (1000.0 *. quantile raw_lat 0.9)
    (1000.0 *. t.raw_cpu_s /. float items)
    (Array.fold_left ( +. ) 0.0 ref_ns /. 1e6 /. (ipf *. float (Array.length ref_ns)));
  let metrics, checks =
    match mirror with
    | None -> (end_to_end_metrics t ~ipf ~setup_s:(median (List.map fst setup_times)) ~failed, checks)
    | Some m ->
        let replayed =
          float (after.replayed_frames - before.replayed_frames)
          /. float (max 1 (after.frames - before.frames))
        in
        let metrics, purpose =
          layer_metrics w m ~frames:t.frames
            ~e2e_p50_s:(quantile (sorted t.raw_latencies_s) 0.5)
            ~ref_ns ~replayed ~open_ms
        in
        let path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed) in
        Trace.write_json m.rec_ ~path
          ~header:
            (Printf.sprintf "\"workload\":%S,\"seed\":%d,\"metrics\":%s" workload seed
               (Json.to_string (Json.Obj (List.map (fun (nm, v, _) -> (nm, Json.Num v)) metrics))));
        Printf.printf "spans written to %s\n" path;
        (metrics, checks @ [ ("traced mirror replies equal in-process replies", !mirror_same); purpose ])
  in
  print_checks checks;
  print_metrics metrics;
  Wire.rm_rf run_dir;
  print_result ~correct:(List.for_all snd checks) ~attempted:n ~failed metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sim-stdio | analyze-tcp | replay-tcp");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "macs_bench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload Gen.workloads) then (
    prerr_endline ("macs_bench: unknown workload " ^ !workload);
    exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
