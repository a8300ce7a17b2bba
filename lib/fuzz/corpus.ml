module Journal = Macs_util.Journal

type kind = Kernel_case | Asm_case

type expect = Clean | Violation of string

type entry = {
  kind : kind;
  machine : string;
  seed : int;
  expect : expect;
  payload : string;
}

let format = "macs-fuzz-corpus"

let record_of_entry (e : entry) =
  {
    Journal.tag = "case";
    fields =
      [
        ("kind", match e.kind with Kernel_case -> "kernel" | Asm_case -> "asm");
        ("machine", e.machine);
        ("seed", Journal.put_int e.seed);
        ( "expect",
          match e.expect with Clean -> "clean" | Violation _ -> "violation" );
        ("check", match e.expect with Clean -> "" | Violation c -> c);
        ("payload", e.payload);
      ];
  }

let entry_of_record (r : Journal.record) =
  let ( let* ) = Result.bind in
  if r.Journal.tag <> "case" then
    Error (Printf.sprintf "unexpected record tag %S" r.Journal.tag)
  else
    let* kind_s = Journal.field_err r "kind" in
    let* kind =
      match kind_s with
      | "kernel" -> Ok Kernel_case
      | "asm" -> Ok Asm_case
      | s -> Error (Printf.sprintf "unknown case kind %S" s)
    in
    let* machine = Journal.field_err r "machine" in
    let* seed_s = Journal.field_err r "seed" in
    let* seed =
      match Journal.get_int seed_s with
      | Some n -> Ok n
      | None -> Error "seed is not an integer"
    in
    let* expect_s = Journal.field_err r "expect" in
    let* expect =
      match expect_s with
      | "clean" -> Ok Clean
      | "violation" -> (
          match Journal.field r "check" with
          | Some c when c <> "" -> Ok (Violation c)
          | _ -> Error "violation entry is missing its check id")
      | s -> Error (Printf.sprintf "unknown expectation %S" s)
    in
    let* payload = Journal.field_err r "payload" in
    Ok { kind; machine; seed; expect; payload }

let create ~path = Journal.create ~path ~format []

(* [fresh]: the file holds no entry yet, so the first [add] (re)creates
   it; afterwards every [add] appends at the tail [appender] recovered. *)
type appender = { path : string; mutable fresh : bool }

let appender ~path =
  match Journal.recover ~path ~format with
  | Ok Journal.Fresh -> { path; fresh = true }
  | Ok (Journal.Intact _) -> { path; fresh = false }
  | Ok (Journal.Damaged msg) | Error msg ->
      Macs_util.Macs_error.raise_error
        (Macs_util.Macs_error.parse_failure ~site:"Corpus.appender" msg)

let add a entry =
  let r = record_of_entry entry in
  if a.fresh then begin
    Journal.create ~path:a.path ~format [ r ];
    a.fresh <- false
  end
  else Journal.append ~path:a.path r

let load ~path =
  match Journal.recover ~path ~format with
  | Error msg | Ok (Journal.Damaged msg) -> Error msg
  | Ok Journal.Fresh ->
      if Sys.file_exists path then Ok []
      else Error (Printf.sprintf "journal %s does not exist" path)
  | Ok (Journal.Intact records) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
            match entry_of_record r with
            | Ok e -> go (e :: acc) rest
            | Error _ as err -> err)
      in
      go [] records

(* ---- replay ---- *)

type replay = { entry : entry; ok : bool; detail : string }

let check_needs_sim id =
  let prefixed p =
    String.length id >= String.length p && String.sub id 0 (String.length p) = p
  in
  id = "sim" || prefixed "oracle:" || prefixed "fault-sim:"

let describe_failures report =
  String.concat "; "
    (List.map
       (fun (c : Oracle_stack.check) ->
         match c.outcome with
         | Oracle_stack.Fail d -> c.id ^ ": " ^ d
         | _ -> c.id)
       (Oracle_stack.failures report))

let replay_kernel (e : entry) =
  match Lfk.Codec.of_string e.payload with
  | Error msg -> { entry = e; ok = false; detail = "payload: " ^ msg }
  | Ok k -> (
      match Convex_dsl.Machine_dsl.of_name_or_spec e.machine with
      | Error msg -> { entry = e; ok = false; detail = msg }
      | Ok machine -> (
          let sim =
            match e.expect with
            | Clean -> true
            | Violation id -> check_needs_sim id
          in
          let report = Oracle_stack.run ~machine ~sim k in
          match e.expect with
          | Violation id ->
              if Oracle_stack.fails report ~id then
                { entry = e; ok = true;
                  detail = Printf.sprintf "%s still fails, as recorded" id }
              else
                { entry = e; ok = false;
                  detail =
                    Printf.sprintf
                      "%s no longer fails — fixed? retire or flip the entry \
                       to expect=clean"
                      id }
          | Clean -> (
              match Oracle_stack.failures report with
              | [] -> { entry = e; ok = true; detail = "all checks pass" }
              | _ ->
                  { entry = e; ok = false;
                    detail = "regressed: " ^ describe_failures report })))

let replay_asm (e : entry) =
  match Convex_isa.Asm.parse_program e.payload with
  | Error msg -> (
      match e.expect with
      | Violation _ ->
          { entry = e; ok = true; detail = "listing still unparseable: " ^ msg }
      | Clean ->
          { entry = e; ok = false; detail = "listing does not parse: " ^ msg })
  | Ok p -> (
      let check = Oracle_stack.check_program p in
      let round_trip_ok =
        match check.Oracle_stack.outcome with
        | Oracle_stack.Pass -> true
        | _ -> false
      in
      match e.expect with
      | Clean ->
          if round_trip_ok then
            { entry = e; ok = true; detail = "round trip holds" }
          else { entry = e; ok = false; detail = "round trip regressed" }
      | Violation _ ->
          if round_trip_ok then
            { entry = e; ok = false;
              detail = "round trip no longer fails — retire or flip to clean" }
          else { entry = e; ok = true; detail = "round trip still fails" })

let replay_entry (e : entry) =
  match e.kind with
  | Kernel_case -> replay_kernel e
  | Asm_case -> replay_asm e

let replay ~path () =
  match load ~path with
  | Error _ as e -> e
  | Ok entries -> Ok (List.map replay_entry entries)
