open Convex_machine
open Convex_isa
open Macs_util

let site_parse = "Machine_dsl.parse"
let site_validate = "Machine_dsl.validate"

let vclass_names =
  [
    ("ld", Instr.Cld);
    ("st", Instr.Cst);
    ("add", Instr.Cadd);
    ("sub", Instr.Csub);
    ("mul", Instr.Cmul);
    ("div", Instr.Cdiv);
    ("sqrt", Instr.Csqrt);
    ("sum", Instr.Csum);
    ("neg", Instr.Cneg);
    ("cmp", Instr.Ccmp);
    ("merge", Instr.Cmerge);
  ]

(* Shortest decimal that parses back to exactly the same float — the
   Fault.to_spec idiom, so canonical specs stay human-readable without
   losing round-trip exactness. *)
let float_token f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* Names travel as one clause value, so only the clause separator, the
   escape character itself, and control bytes need armor; everything else
   (spaces, parens, colons, even '=') passes through literally. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '%' || c = ';' || Char.code c < 0x20 || Char.code c = 0x7f then
        Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
      else Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] = '%' then
      if i + 2 < n then
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code ->
            Buffer.add_char b (Char.chr code);
            go (i + 3)
        | None -> Error (Printf.sprintf "bad escape %S" (String.sub s i 3))
      else Error "truncated %-escape"
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

(* ---- printing ---- *)

let to_spec (m : Machine.t) =
  let mem = m.memory in
  let buf = Buffer.create 256 in
  let clause fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  clause "name=%s" (escape m.name);
  clause ";clock=%s" (float_token m.clock_mhz);
  clause ";vl=%d" m.max_vl;
  clause ";pipes=%d/%d/%d" m.pipes.load_store m.pipes.add_unit
    m.pipes.multiply_unit;
  clause ";pair=%d/%d" m.pair_read_limit m.pair_write_limit;
  clause ";scalar=%d/%d" m.scalar_cycles m.scalar_memory_cycles;
  clause ";banks=%d" mem.Mem_params.banks;
  clause ";word=%d" mem.Mem_params.word_bytes;
  clause ";busy=%d" mem.Mem_params.bank_busy_cycles;
  (if mem.Mem_params.refresh_duration = 0 then clause ";refresh=none"
   else
     clause ";refresh=%d/%d" mem.Mem_params.refresh_duration
       mem.Mem_params.refresh_period);
  clause ";ports=%d" mem.Mem_params.ports;
  List.iter
    (fun (cname, c) ->
      let p = Timing.get m.timing c in
      clause ";t.%s=%d/%d/%s/%d" cname p.Timing.x p.Timing.y
        (float_token p.Timing.z) p.Timing.b)
    vclass_names;
  Buffer.contents buf

(* ---- validation ---- *)

let fail_validate fmt =
  Printf.ksprintf
    (fun msg -> Error (Macs_error.parse_failure ~site:site_validate msg))
    fmt

let check_range what v lo hi =
  if v >= lo && v <= hi then Ok ()
  else fail_validate "%s: %d out of range [%d, %d]" what v lo hi

let validate (m : Machine.t) =
  let ( let* ) = Result.bind in
  let mem = m.memory in
  let* () =
    if Float.is_finite m.clock_mhz && m.clock_mhz > 0.0
       && m.clock_mhz <= 1e6 then Ok ()
    else
      fail_validate "clock: %s not a positive MHz value (max 1e6)"
        (float_token m.clock_mhz)
  in
  let* () = check_range "vl" m.max_vl 1 4096 in
  let* () = check_range "pipes.ld" m.pipes.load_store 1 16 in
  let* () = check_range "pipes.add" m.pipes.add_unit 1 16 in
  let* () = check_range "pipes.mul" m.pipes.multiply_unit 1 16 in
  let* () = check_range "pair reads" m.pair_read_limit 1 16 in
  let* () = check_range "pair writes" m.pair_write_limit 1 16 in
  let* () = check_range "scalar cycles" m.scalar_cycles 1 1024 in
  let* () = check_range "scalar memory cycles" m.scalar_memory_cycles 1 1024 in
  let* () = check_range "banks" mem.Mem_params.banks 1 65536 in
  let* () = check_range "word" mem.Mem_params.word_bytes 1 64 in
  let* () = check_range "busy" mem.Mem_params.bank_busy_cycles 0 4096 in
  let* () =
    if mem.Mem_params.refresh_duration = 0 then Ok ()
    else if
      mem.Mem_params.refresh_duration > 0
      && mem.Mem_params.refresh_duration < mem.Mem_params.refresh_period
      && mem.Mem_params.refresh_period <= 1_000_000_000
    then Ok ()
    else
      fail_validate
        "refresh: need 0 < duration < period <= 1e9, got duration %d period %d"
        mem.Mem_params.refresh_duration mem.Mem_params.refresh_period
  in
  let* () = check_range "ports" mem.Mem_params.ports 1 64 in
  List.fold_left
    (fun acc (cname, c) ->
      let* () = acc in
      let p = Timing.get m.timing c in
      let row what v lo hi =
        if v >= lo && v <= hi then Ok ()
        else
          fail_validate "t.%s: %s %d out of range [%d, %d]" cname what v lo hi
      in
      let* () = row "startup X" p.Timing.x 0 4096 in
      let* () = row "fill Y" p.Timing.y 0 4096 in
      let* () = row "bubble B" p.Timing.b 0 4096 in
      if Float.is_finite p.Timing.z && p.Timing.z > 0.0 && p.Timing.z <= 1024.0
      then Ok ()
      else
        fail_validate "t.%s: rate Z %s not in (0, 1024]" cname
          (float_token p.Timing.z))
    (Ok ()) vclass_names

(* ---- parsing ---- *)

let fail_parse fmt =
  Printf.ksprintf
    (fun msg -> Error (Macs_error.parse_failure ~site:site_parse msg))
    fmt

let ( let* ) = Result.bind

let int_field what tok =
  match int_of_string_opt tok with
  | Some n -> Ok n
  | None -> fail_parse "%s: expected integer, got %S" what tok

let float_field what tok =
  match float_of_string_opt tok with
  | Some f when Float.is_finite f -> Ok f
  | _ -> fail_parse "%s: expected finite number, got %S" what tok

let split_on_slash what arity tok =
  let parts = String.split_on_char '/' tok in
  if List.length parts = arity then Ok parts
  else
    fail_parse "%s: expected %d '/'-separated fields, got %S" what arity tok

let set_timing timing c f =
  Timing.map (fun c' p -> if Instr.equal_vclass c c' then f p else p) timing

let timing_class what cname =
  match List.assoc_opt cname vclass_names with
  | Some c -> Ok c
  | None ->
      fail_parse "%s: unknown vector class %S (one of: %s)" what cname
        (String.concat " " (List.map fst vclass_names))

let parse_clause (m : Machine.t) clause =
  match String.index_opt clause '=' with
  | None -> fail_parse "clause %S has no '='" clause
  | Some i ->
      let key = String.sub clause 0 i in
      let v = String.sub clause (i + 1) (String.length clause - i - 1) in
      let mem = m.memory in
      (match key with
      | "name" -> (
          match unescape v with
          | Ok name -> Ok { m with name }
          | Error e -> fail_parse "name: %s" e)
      | "clock" ->
          let* clock_mhz = float_field "clock" v in
          Ok { m with clock_mhz }
      | "vl" ->
          let* max_vl = int_field "vl" v in
          Ok { m with max_vl }
      | "pipes" ->
          let* parts = split_on_slash "pipes" 3 v in
          let* ns =
            List.fold_left
              (fun acc tok ->
                let* acc = acc in
                let* n = int_field "pipes" tok in
                Ok (n :: acc))
              (Ok []) parts
          in
          let mul, add, ld =
            match ns with
            | [ c; b; a ] -> (c, b, a)
            | _ -> assert false
          in
          Ok
            {
              m with
              pipes = { load_store = ld; add_unit = add; multiply_unit = mul };
            }
      | "pipes.ld" ->
          let* n = int_field key v in
          Ok { m with pipes = { m.pipes with load_store = n } }
      | "pipes.add" ->
          let* n = int_field key v in
          Ok { m with pipes = { m.pipes with add_unit = n } }
      | "pipes.mul" ->
          let* n = int_field key v in
          Ok { m with pipes = { m.pipes with multiply_unit = n } }
      | "pair" ->
          let* parts = split_on_slash "pair" 2 v in
          let r, w =
            match parts with [ r; w ] -> (r, w) | _ -> assert false
          in
          let* pair_read_limit = int_field "pair" r in
          let* pair_write_limit = int_field "pair" w in
          Ok { m with pair_read_limit; pair_write_limit }
      | "scalar" ->
          let* parts = split_on_slash "scalar" 2 v in
          let c, mc =
            match parts with [ c; mc ] -> (c, mc) | _ -> assert false
          in
          let* scalar_cycles = int_field "scalar" c in
          let* scalar_memory_cycles = int_field "scalar" mc in
          Ok { m with scalar_cycles; scalar_memory_cycles }
      | "banks" ->
          let* banks = int_field "banks" v in
          Ok { m with memory = { mem with Mem_params.banks } }
      | "word" ->
          let* word_bytes = int_field "word" v in
          Ok { m with memory = { mem with Mem_params.word_bytes } }
      | "busy" ->
          let* bank_busy_cycles = int_field "busy" v in
          Ok { m with memory = { mem with Mem_params.bank_busy_cycles } }
      | "refresh" ->
          if v = "none" then
            Ok { m with memory = Mem_params.no_refresh mem }
          else
            let* parts = split_on_slash "refresh" 2 v in
            let d, p =
              match parts with [ d; p ] -> (d, p) | _ -> assert false
            in
            let* refresh_duration = int_field "refresh" d in
            let* refresh_period = int_field "refresh" p in
            Ok
              {
                m with
                memory = { mem with Mem_params.refresh_duration; refresh_period };
              }
      | "ports" ->
          let* ports = int_field "ports" v in
          Ok { m with memory = { mem with Mem_params.ports } }
      | _ when String.length key > 2 && String.sub key 0 2 = "t." -> (
          let rest = String.sub key 2 (String.length key - 2) in
          match String.index_opt rest '.' with
          | None ->
              (* full timing row: t.<class>=x/y/z/b *)
              let* c = timing_class key rest in
              let* parts = split_on_slash key 4 v in
              let x, y, z, b =
                match parts with
                | [ x; y; z; b ] -> (x, y, z, b)
                | _ -> assert false
              in
              let* x = int_field key x in
              let* y = int_field key y in
              let* z = float_field key z in
              let* b = int_field key b in
              Ok
                {
                  m with
                  timing =
                    set_timing m.timing c (fun _ -> { Timing.x; y; z; b });
                }
          | Some j ->
              let cname = String.sub rest 0 j in
              let fname = String.sub rest (j + 1) (String.length rest - j - 1) in
              let* c = timing_class key cname in
              let* timing =
                match fname with
                | "x" ->
                    let* x = int_field key v in
                    Ok (set_timing m.timing c (fun p -> { p with Timing.x }))
                | "y" ->
                    let* y = int_field key v in
                    Ok (set_timing m.timing c (fun p -> { p with Timing.y }))
                | "z" ->
                    let* z = float_field key v in
                    Ok (set_timing m.timing c (fun p -> { p with Timing.z }))
                | "b" ->
                    let* b = int_field key v in
                    Ok (set_timing m.timing c (fun p -> { p with Timing.b }))
                | _ -> fail_parse "%s: unknown timing field %S" key fname
              in
              Ok { m with timing })
      | _ -> fail_parse "unknown machine clause %S" key)

let parse spec =
  let spec = String.trim spec in
  if spec = "" then fail_parse "empty machine spec"
  else if not (String.contains spec '=') then
    (* bare preset name *)
    match Machine.of_name spec with
    | Ok m -> Ok m
    | Error e -> fail_parse "%s" e
  else
    let clauses = List.map String.trim (String.split_on_char ';' spec) in
    let* base, clauses =
      match clauses with
      | first :: rest when not (String.contains first '=') -> (
          match Machine.of_name first with
          | Ok m -> Ok (m, rest)
          | Error e -> fail_parse "base preset: %s" e)
      | _ -> Ok (Machine.c240, clauses)
    in
    let* m =
      List.fold_left
        (fun acc clause ->
          let* m = acc in
          if clause = "" then
            (* a stray ";;" or trailing ";" is a typo, not a no-op *)
            fail_parse "empty clause"
          else parse_clause m clause)
        (Ok base) clauses
    in
    let* () = validate m in
    Ok m

let label m =
  match List.find_opt (fun (_, p) -> Machine.equal p m) Machine.presets with
  | Some (name, _) -> name
  | None -> to_spec m

let of_name_or_spec s =
  match parse s with
  | Ok m -> Ok m
  | Error e -> Error (Macs_error.to_string e)

let preset_specs =
  List.map (fun (name, m) -> (name, to_spec m)) Machine.presets
