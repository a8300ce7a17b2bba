open Convex_machine

type bank_degrade = { bank : int; extra_busy : int } [@@deriving eq]

type bank_stuck = { bank : int; from_cycle : int; until_cycle : int option }
[@@deriving eq]

type scrub = { bank : int; period : int; duration : int } [@@deriving eq]

type pipe_slow = {
  pipe : Pipe.t; [@equal Pipe.equal]
  z_factor : float;
  extra_startup : int;
}
[@@deriving eq]

type port_spike = { period : int; duration : int } [@@deriving eq]
type window = { opens : int; closes : int } [@@deriving eq]

type t = {
  name : string;
  seed : int;
  degraded : bank_degrade list;
  stuck : bank_stuck list;
  scrubs : scrub list;
  refresh_jitter : int;
  slow_pipes : pipe_slow list;
  port_spikes : port_spike list;
  window : window option;
}

let none =
  {
    name = "none";
    seed = 0x5eed;
    degraded = [];
    stuck = [];
    scrubs = [];
    refresh_jitter = 0;
    slow_pipes = [];
    port_spikes = [];
    window = None;
  }

let is_none t =
  t.degraded = [] && t.stuck = [] && t.scrubs = [] && t.refresh_jitter = 0
  && t.slow_pipes = [] && t.port_spikes = []

(* ---- transient windows ---- *)

let active_at t ~cycle =
  match t.window with
  | None -> true
  | Some w -> cycle >= w.opens && cycle < w.closes

(* A plan is quiescent over [lo, hi] when no query with a cycle in that
   range can answer anything but "healthy": either the plan has no
   clauses at all, or it is transient and its window misses the range
   entirely.  A permanent plan with clauses is never quiescent — some
   query (a blocked bank, a slowed pipe) could fire at any cycle, and
   proving it cannot would need the access pattern, which is the
   caller's job.  This is the proof obligation the tiered fast path
   discharges before leaping over a region (see DESIGN §14). *)
let quiescent t ~lo ~hi =
  is_none t
  ||
  match t.window with
  | Some w -> hi < w.opens || lo >= w.closes
  | None -> false

(* ---- queries ---- *)

let bank_extra_busy t ~bank ~cycle =
  if not (active_at t ~cycle) then 0
  else
    List.fold_left
      (fun acc (d : bank_degrade) ->
        if d.bank = bank then acc + d.extra_busy else acc)
      0 t.degraded

let bank_blocked t ~bank ~cycle =
  active_at t ~cycle
  && (List.exists
        (fun (s : bank_stuck) ->
          s.bank = bank && cycle >= s.from_cycle
          && match s.until_cycle with None -> true | Some u -> cycle < u)
        t.stuck
     || List.exists
          (fun (s : scrub) ->
            s.bank = bank && s.duration > 0 && s.period > 0
            && cycle mod s.period >= s.period - s.duration)
          t.scrubs)

(* splitmix64 finalizer over (seed, k); deterministic and stateless, the
   same construction Contention uses for port steals *)
let mix seed k =
  let z = Int64.of_int ((seed * 0x2545f49) lxor k) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let refresh_extension t ~period ~cycle =
  if
    t.refresh_jitter <= 0 || period <= 0 || period = max_int
    || not (active_at t ~cycle)
  then 0
  else
    let k = cycle / period in
    Int64.to_int
      (Int64.rem
         (Int64.shift_right_logical (mix t.seed k) 11)
         (Int64.of_int (t.refresh_jitter + 1)))

let port_blocked t ~cycle =
  active_at t ~cycle
  && List.exists
       (fun (s : port_spike) ->
         s.duration > 0 && s.period > 0
         && cycle mod s.period >= s.period - s.duration)
       t.port_spikes

let pipe_z_factor t ~cycle pipe =
  if not (active_at t ~cycle) then 1.0
  else
    List.fold_left
      (fun acc (p : pipe_slow) ->
        if Pipe.equal p.pipe pipe then acc *. p.z_factor else acc)
      1.0 t.slow_pipes

let pipe_extra_startup t ~cycle pipe =
  if not (active_at t ~cycle) then 0
  else
    List.fold_left
      (fun acc (p : pipe_slow) ->
        if Pipe.equal p.pipe pipe then acc + p.extra_startup else acc)
      0 t.slow_pipes

(* The analytic parallel-mode model is steady-state: a transient window has
   no "current cycle" there, so the steal fraction deliberately ignores
   [window] and describes the plan at full strength. *)
let steal_fraction t =
  let f =
    List.fold_left
      (fun acc (s : port_spike) ->
        if s.period > 0 then
          acc +. (float_of_int s.duration /. float_of_int s.period)
        else acc)
      0.0 t.port_spikes
  in
  Float.min 0.95 f

(* ---- clause decomposition ---- *)

type clause =
  | Degrade of bank_degrade
  | Stuck of bank_stuck
  | Scrub of scrub
  | Jitter of int
  | Slow_pipe of pipe_slow
  | Port_spike of port_spike

let clauses t =
  List.map (fun d -> Degrade d) (List.rev t.degraded)
  @ List.map (fun s -> Stuck s) (List.rev t.stuck)
  @ List.map (fun s -> Scrub s) (List.rev t.scrubs)
  @ (if t.refresh_jitter > 0 then [ Jitter t.refresh_jitter ] else [])
  @ List.map (fun p -> Slow_pipe p) (List.rev t.slow_pipes)
  @ List.map (fun s -> Port_spike s) (List.rev t.port_spikes)

(* Injection lists are stored in reverse clause order (the parser
   prepends), so rebuilding by prepending in clause order reconstructs the
   same representation: [with_clauses t (clauses t)] is structurally [t]
   up to a duplicate-jitter collapse. *)
let with_clauses t cs =
  List.fold_left
    (fun acc c ->
      match c with
      | Degrade d -> { acc with degraded = d :: acc.degraded }
      | Stuck s -> { acc with stuck = s :: acc.stuck }
      | Scrub s -> { acc with scrubs = s :: acc.scrubs }
      | Jitter j -> { acc with refresh_jitter = j }
      | Slow_pipe p -> { acc with slow_pipes = p :: acc.slow_pipes }
      | Port_spike s -> { acc with port_spikes = s :: acc.port_spikes })
    {
      t with
      degraded = [];
      stuck = [];
      scrubs = [];
      refresh_jitter = 0;
      slow_pipes = [];
      port_spikes = [];
    }
    cs

(* Shortest decimal that parses back to exactly the same float: specs stay
   human-readable ("1.5", not "0x1.8p+0") without losing round-trip
   exactness on awkward factors. *)
let float_token f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* ---- validation ---- *)

let bank_limit = Mem_params.c240.Mem_params.banks

let validate t =
  let ( let* ) = Result.bind in
  let check b msg = if b then Ok () else Error msg in
  let each f xs =
    List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) xs
  in
  let bank_ok what bank =
    check
      (bank >= 0 && bank < bank_limit)
      (Printf.sprintf "%s: bank %d out of range [0, %d)" what bank bank_limit)
  in
  let* () = check (t.seed >= 0) "seed: must be nonnegative" in
  let* () =
    each
      (fun (d : bank_degrade) ->
        let* () = bank_ok "degrade-bank" d.bank in
        check (d.extra_busy >= 0)
          (Printf.sprintf "degrade-bank: negative extra busy %d" d.extra_busy))
      t.degraded
  in
  let* () =
    each
      (fun (s : bank_stuck) ->
        let* () = bank_ok "stuck-bank" s.bank in
        let* () =
          check (s.from_cycle >= 0)
            (Printf.sprintf "stuck-bank: negative from cycle %d" s.from_cycle)
        in
        match s.until_cycle with
        | None -> Ok ()
        | Some u ->
            check (u > s.from_cycle)
              (Printf.sprintf "stuck-bank: empty window %d-%d" s.from_cycle u))
      t.stuck
  in
  let* () =
    each
      (fun (s : scrub) ->
        let* () = bank_ok "scrub" s.bank in
        check
          (s.duration > 0 && s.duration < s.period)
          (Printf.sprintf
             "scrub: need 0 < duration < period, got duration %d period %d"
             s.duration s.period))
      t.scrubs
  in
  let* () =
    check (t.refresh_jitter >= 0)
      (Printf.sprintf "jitter: negative jitter %d" t.refresh_jitter)
  in
  let* () =
    each
      (fun (p : pipe_slow) ->
        let* () =
          check (p.z_factor >= 1.0)
            (Printf.sprintf
               "slow-pipe: factor %s for pipe %s not >= 1 (a fault cannot \
                speed a pipe up)"
               (float_token p.z_factor) (Pipe.name p.pipe))
        in
        check (p.extra_startup >= 0)
          (Printf.sprintf "slow-pipe: negative extra startup %d"
             p.extra_startup))
      t.slow_pipes
  in
  let* () =
    each
      (fun (s : port_spike) ->
        check
          (s.duration > 0 && s.duration < s.period)
          (Printf.sprintf
             "port-spike: need 0 < duration < period, got duration %d period \
              %d"
             s.duration s.period))
      t.port_spikes
  in
  match t.window with
  | None -> Ok ()
  | Some w ->
      check
        (w.opens >= 0 && w.closes > w.opens)
        (Printf.sprintf "window: empty or negative window %d-%d" w.opens
           w.closes)

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let int_clause what tok =
  match int_of_string_opt tok with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected nonnegative integer, got %S" what tok)

let bank_clause what tok =
  match int_of_string_opt tok with
  | Some bank when bank >= 0 && bank < bank_limit -> Ok bank
  | Some bank ->
      Error
        (Printf.sprintf "%s: bank %d out of range [0, %d)" what bank bank_limit)
  | None -> Error (Printf.sprintf "%s: expected bank index, got %S" what tok)

let split2 sep what tok =
  match String.index_opt tok sep with
  | Some i ->
      Ok
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
  | None -> Error (Printf.sprintf "%s: expected %C in %S" what sep tok)

let parse_clause acc clause =
  match String.index_opt clause '=' with
  | None -> Error (Printf.sprintf "clause %S has no '='" clause)
  | Some i ->
      let key = String.sub clause 0 i in
      let v = String.sub clause (i + 1) (String.length clause - i - 1) in
      (match key with
      | "seed" ->
          let* seed = int_clause "seed" v in
          Ok { acc with seed }
      | "degrade-bank" ->
          let* b, f = split2 '*' "degrade-bank" v in
          let* bank = bank_clause "degrade-bank" b in
          let* factor = int_clause "degrade-bank" f in
          if factor < 1 then
            Error
              (Printf.sprintf
                 "degrade-bank: factor %d must be >= 1 (a fault cannot speed \
                  a bank up)"
                 factor)
          else
            Ok
              {
                acc with
                degraded =
                  { bank; extra_busy = (factor - 1) * 8 } :: acc.degraded;
              }
      | "stuck-bank" ->
          let* b, win = split2 '@' "stuck-bank" v in
          let* bank = bank_clause "stuck-bank" b in
          let* lo, hi = split2 '-' "stuck-bank" win in
          let* from_cycle = int_clause "stuck-bank" lo in
          let* until_cycle =
            if hi = "" then Ok None
            else
              let* u = int_clause "stuck-bank" hi in
              if u <= from_cycle then
                Error
                  (Printf.sprintf "stuck-bank: empty window %d-%d" from_cycle
                     u)
              else Ok (Some u)
          in
          Ok
            { acc with stuck = { bank; from_cycle; until_cycle } :: acc.stuck }
      | "scrub" ->
          let* b, rest = split2 '/' "scrub" v in
          let* p, d = split2 '*' "scrub" rest in
          let* bank = bank_clause "scrub" b in
          let* period = int_clause "scrub" p in
          let* duration = int_clause "scrub" d in
          if period <= 0 || duration <= 0 || duration >= period then
            Error
              (Printf.sprintf
                 "scrub: need 0 < duration < period, got duration %d period %d"
                 duration period)
          else Ok { acc with scrubs = { bank; period; duration } :: acc.scrubs }
      | "jitter" ->
          let* refresh_jitter = int_clause "jitter" v in
          Ok { acc with refresh_jitter }
      | "slow-pipe" ->
          let* p, f = split2 '*' "slow-pipe" v in
          let* pipe =
            match Pipe.of_name p with
            | Some pipe -> Ok pipe
            | None -> Error (Printf.sprintf "slow-pipe: unknown pipe %S" p)
          in
          let* z_factor =
            match float_of_string_opt f with
            | Some z when z >= 1.0 -> Ok z
            | Some z ->
                Error
                  (Printf.sprintf
                     "slow-pipe: factor %s not >= 1 (a fault cannot speed a \
                      pipe up)"
                     (float_token z))
            | None ->
                Error (Printf.sprintf "slow-pipe: expected factor, got %S" f)
          in
          Ok
            {
              acc with
              slow_pipes =
                { pipe; z_factor; extra_startup = 0 } :: acc.slow_pipes;
            }
      | "port-spike" ->
          let* d, p = split2 '/' "port-spike" v in
          let* duration = int_clause "port-spike" d in
          let* period = int_clause "port-spike" p in
          if period <= 0 || duration <= 0 || duration >= period then
            Error
              (Printf.sprintf
                 "port-spike: need 0 < duration < period, got duration %d \
                  period %d"
                 duration period)
          else
            Ok { acc with port_spikes = { period; duration } :: acc.port_spikes }
      | "window" ->
          let* lo, hi = split2 '-' "window" v in
          let* opens = int_clause "window" lo in
          if hi = "" then
            Error "window: transient windows need an explicit close, LO-HI"
          else
            let* closes = int_clause "window" hi in
            if closes <= opens then
              Error
                (Printf.sprintf "window: empty window %d-%d" opens closes)
            else Ok { acc with window = Some { opens; closes } }
      | other -> Error (Printf.sprintf "unknown fault clause %S" other))

let presets =
  let p name description spec =
    match
      List.fold_left
        (fun acc clause -> Result.bind acc (fun a -> parse_clause a clause))
        (Ok { none with name })
        (String.split_on_char ';' spec)
    with
    | Ok plan -> (name, description, plan)
    | Error e -> invalid_arg (Printf.sprintf "Fault.presets: %s: %s" name e)
  in
  [
    p "bank-degraded" "banks 0 and 1 at 4x busy time (derated modules)"
      "degrade-bank=0*4;degrade-bank=1*4";
    p "dead-bank" "bank 0 dead from cycle 0 (runs touching it stall out)"
      "stuck-bank=0@0-";
    p "ecc-scrub" "bank 3 scrubbed 24 cycles every 600"
      "scrub=3/600*24";
    p "jittery-refresh" "refresh windows extended by up to 12 cycles"
      "jitter=12";
    p "slow-multiply" "multiply pipe streaming at half rate"
      "slow-pipe=mul*2";
    p "port-storm" "port stolen 32 cycles in every 200"
      "port-spike=32/200";
    p "brownout"
      "combined mild degradation: slow bank, jitter, port spikes, slow add"
      "degrade-bank=5*2;jitter=6;port-spike=16/400;slow-pipe=add*1.25";
  ]

let parse spec =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok none
  else
    match List.find_opt (fun (n, _, _) -> n = spec) presets with
    | Some (_, _, plan) -> Ok plan
    | None ->
        if not (String.contains spec '=') then
          Error
            (Printf.sprintf
               "unknown fault preset %S (available: %s, or clause syntax \
                key=value;...)"
               spec
               (String.concat ", " (List.map (fun (n, _, _) -> n) presets)))
        else
          List.fold_left
            (fun acc clause ->
              Result.bind acc (fun a ->
                  parse_clause a (String.trim clause)))
            (Ok { none with name = spec })
            (String.split_on_char ';' spec)

(* Clause lists are emitted in reverse stored order because [parse_clause]
   prepends: [parse (to_spec p)] reconstructs each list in [p]'s order. *)
let to_spec t =
  let cs = ref [] in
  let emit c = cs := c :: !cs in
  emit (Printf.sprintf "seed=%d" t.seed);
  Option.iter
    (fun w -> emit (Printf.sprintf "window=%d-%d" w.opens w.closes))
    t.window;
  List.iter
    (fun (d : bank_degrade) ->
      emit
        (Printf.sprintf "degrade-bank=%d*%d" d.bank ((d.extra_busy / 8) + 1)))
    (List.rev t.degraded);
  List.iter
    (fun (s : bank_stuck) ->
      emit
        (Printf.sprintf "stuck-bank=%d@%d-%s" s.bank s.from_cycle
           (match s.until_cycle with
           | Some u -> string_of_int u
           | None -> "")))
    (List.rev t.stuck);
  List.iter
    (fun (s : scrub) ->
      emit (Printf.sprintf "scrub=%d/%d*%d" s.bank s.period s.duration))
    (List.rev t.scrubs);
  if t.refresh_jitter > 0 then
    emit (Printf.sprintf "jitter=%d" t.refresh_jitter);
  List.iter
    (fun (p : pipe_slow) ->
      emit
        (Printf.sprintf "slow-pipe=%s*%s" (Pipe.name p.pipe)
           (float_token p.z_factor)))
    (List.rev t.slow_pipes);
  List.iter
    (fun (s : port_spike) ->
      emit (Printf.sprintf "port-spike=%d/%d" s.duration s.period))
    (List.rev t.port_spikes);
  String.concat ";" (List.rev !cs)

(* Structural, clause-by-clause: polymorphic compare would also work on
   today's representation but silently breaks the moment a clause type
   grows a float we print differently, a closure, or an abstract field —
   the derived equalities keep this honest per clause type. *)
let equal_behaviour a b =
  a.seed = b.seed
  && List.equal equal_bank_degrade a.degraded b.degraded
  && List.equal equal_bank_stuck a.stuck b.stuck
  && List.equal equal_scrub a.scrubs b.scrubs
  && a.refresh_jitter = b.refresh_jitter
  && List.equal equal_pipe_slow a.slow_pipes b.slow_pipes
  && List.equal equal_port_spike a.port_spikes b.port_spikes
  && Option.equal equal_window a.window b.window

let pp fmt t =
  if is_none t then Format.fprintf fmt "no faults"
  else begin
    Format.fprintf fmt "@[<v>fault plan %S (seed %#x):" t.name t.seed;
    Option.iter
      (fun w ->
        Format.fprintf fmt "@,  transient: active only in cycles [%d, %d)"
          w.opens w.closes)
      t.window;
    List.iter
      (fun (d : bank_degrade) ->
        Format.fprintf fmt "@,  bank %d: +%d busy cycles" d.bank d.extra_busy)
      t.degraded;
    List.iter
      (fun (s : bank_stuck) ->
        Format.fprintf fmt "@,  bank %d: stuck from cycle %d%s" s.bank
          s.from_cycle
          (match s.until_cycle with
          | Some u -> Printf.sprintf " to %d" u
          | None -> " onward"))
      t.stuck;
    List.iter
      (fun (s : scrub) ->
        Format.fprintf fmt "@,  bank %d: ECC scrub %d cycles every %d" s.bank
          s.duration s.period)
      t.scrubs;
    if t.refresh_jitter > 0 then
      Format.fprintf fmt "@,  refresh jitter: up to +%d cycles per window"
        t.refresh_jitter;
    List.iter
      (fun (p : pipe_slow) ->
        Format.fprintf fmt "@,  pipe %s: %.2fx per-element rate%s"
          (Pipe.name p.pipe) p.z_factor
          (if p.extra_startup > 0 then
             Printf.sprintf ", +%d startup" p.extra_startup
           else ""))
      t.slow_pipes;
    List.iter
      (fun (s : port_spike) ->
        Format.fprintf fmt "@,  port: stolen %d cycles in every %d" s.duration
          s.period)
      t.port_spikes;
    Format.fprintf fmt "@]"
  end

let to_string t = Format.asprintf "%a" pp t
