(* Tests for convex_serve: the handwritten JSON codec, frame decoding,
   the request loop's error envelope, deadline degradation, idempotent
   replay through the session journal, crash-tail repair, and the
   protocol-fuzz rung. *)

module Json = Convex_serve.Json
module Protocol = Convex_serve.Protocol
module Session = Convex_serve.Session
module Server = Convex_serve.Server
module Serve_fuzz = Convex_serve.Serve_fuzz
module Supervisor = Convex_serve.Supervisor

let tmp_dir =
  let counter = ref 0 in
  fun label ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "macs_serve_test_%d_%s_%d" (Unix.getpid ()) label
           !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) ( = )

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" s e

(* ---- Json ---- *)

let test_json_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (s ^ ": print (parse s) = s")
        s
        (Json.to_string (parse_ok s)))
    [
      "null";
      "true";
      "false";
      "42";
      "-7";
      "3.25";
      "1e+30";
      {|""|};
      {|"hi"|};
      {|"tab\tquote\"backslash\\"|};
      {|[1,2,[3,null]]|};
      {|{"a":1,"b":[true,{"c":"d"}]}|};
      "9007199254740992";
    ]

let test_json_unicode () =
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included *)
  Alcotest.(check string) "bmp" "\xc3\xa9"
    (match parse_ok {|"é"|} with Json.Str s -> s | _ -> assert false);
  Alcotest.(check string) "astral" "\xf0\x9d\x84\x9e"
    (match parse_ok {|"𝄞"|} with
    | Json.Str s -> s
    | _ -> assert false);
  (match Json.parse {|"\udc00"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unpaired low surrogate must be rejected");
  match Json.parse "\"raw\x01control\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "raw control byte must be rejected"

let test_json_hostile () =
  let long = String.make 300 'a' in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error msg ->
          Alcotest.(check bool) (s ^ ": error nonempty") true (msg <> "")
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [
      "";
      "{";
      "[1,";
      "{\"a\":}";
      "nul";
      "01";
      "- 1";
      "\"unterminated";
      "{\"a\":1} trailing";
      String.concat "" (List.init 100 (fun _ -> "[")) ^ "1";
      (* strings lex as a plain span up to the first escape or control
         byte: each rejection must fire on both sides of that switch *)
      "[-012]";
      {|"\ud834"|};
      {|"\ud834\u0041"|};
      {|"\ud834x"|};
      "\"" ^ long ^ "\x1f\"";
      "\"" ^ long ^ "\\n\n\"";
      "\"" ^ long ^ "\\q\"";
      "\"" ^ long;
      "\"" ^ long ^ "\\t";
    ]

let test_json_depth_cap () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  let closed n =
    deep n ^ "1" ^ String.concat "" (List.init n (fun _ -> "]"))
  in
  (match Json.parse (closed 63) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 63 must parse: %s" e);
  match Json.parse (closed 65) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 65 must be rejected"

let test_json_accessors () =
  let j = parse_ok {|{"s":"x","n":3,"i":7,"b":true,"a":[1],"z":null}|} in
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Json.mem j "s") Json.str);
  Alcotest.(check (option (float 0.0))) "num" (Some 3.0)
    (Option.bind (Json.mem j "n") Json.num);
  Alcotest.(check (option int)) "int" (Some 7)
    (Option.bind (Json.mem j "i") Json.int);
  Alcotest.(check (option bool)) "bool" (Some true)
    (Option.bind (Json.mem j "b") Json.bool);
  Alcotest.(check bool) "arr" true
    (Option.bind (Json.mem j "a") Json.arr = Some [ Json.Num 1.0 ]);
  Alcotest.(check (option string)) "missing" None
    (Option.bind (Json.mem j "nope") Json.str);
  Alcotest.(check (option int)) "non-integral int" None
    (Json.int (Json.Num 1.5))

let test_json_float_rendering () =
  Alcotest.(check string) "integral" "3" (Json.to_string (Json.Num 3.0));
  Alcotest.(check string) "negative zero keeps value" "0"
    (Json.to_string (Json.Num 0.0));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num Float.infinity));
  (* round-trip through the printer preserves the float bit pattern *)
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') ->
          Alcotest.(check int64) "bits" (Int64.bits_of_float f)
            (Int64.bits_of_float f')
      | _ -> Alcotest.failf "float %h did not round-trip" f)
    [ 0.1; 1.0 /. 3.0; 1e-300; 4.2177822177822177; 123456789.125 ]

(* The printer's numbers against the [Printf] formatting they stand
   for, byte for byte: %.0f for integers within 2^53, else %.12g when it
   round-trips and %.17g when it does not; [null] for non-finite. *)
let printf_num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f <= 9.007199254740992e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let num_cases =
  let p53 = 9007199254740992.0 in
  [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; Float.min_float;
    p53 -. 1.0; p53; p53 +. 2.0; -.(p53 +. 2.0); 1e21; -1e21; 0.1; 1.0 /. 3.0;
    Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; 1e-7;
    123456789012.5; 4.2177822177822177 ]

let test_json_num_matches_printf () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (printf_num f)
        (Json.to_string (Json.Num f)))
    num_cases

let num_printf_prop =
  QCheck.Test.make ~count:1000 ~name:"numbers print as Printf does"
    QCheck.float (fun f -> Json.to_string (Json.Num f) = printf_num f)

(* Random documents whose strings mix plain spans, escapes, control
   bytes and non-ASCII bytes, including an escape after a long plain
   prefix (the fast path's hand-off point). *)
let json_gen =
  let open QCheck.Gen in
  let str =
    let piece =
      oneof
        [
          string_size ~gen:(char_range 'a' 'z') (int_range 0 8);
          oneofl [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\b"; "\012" ];
          map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
          oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xff" ];
          map (fun n -> String.make n 'p' ^ "\"") (int_range 64 300);
        ]
    in
    map (String.concat "") (list_size (int_range 0 6) piece)
  in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun f -> if Float.is_finite f then f else 0.5) float;
      ]
  in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (n - 1)))) );
             ])

let json_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"parse (to_string v) = Ok v"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* ---- Json.scan: the tree-free twin of Json.parse ---- *)

(* The scan agrees with the parser on [s]: it rejects exactly what
   [parse] rejects, names a non-object top level, and on an object lists
   every member, in order and duplicates included, with a span that
   parses to that member's value and the element count of an array. *)
let scan_agrees s =
  match (Json.scan s, Json.parse s) with
  | Json.Rejected, Error _ -> true
  | Json.Not_object, Ok j -> (match j with Json.Obj _ -> false | _ -> true)
  | Json.Object ms, Ok (Json.Obj kvs) ->
      List.length ms = List.length kvs
      && List.for_all2
           (fun (m : Json.member) (k, v) ->
             m.key = k
             && Json.member_value s m = v
             && Json.parse (String.sub s m.pos m.len) = Ok v
             && m.count = Option.map List.length (Json.arr v))
           ms kvs
  | _ -> false

(* A line put through one byte-level mangle: truncated at a random byte,
   one byte flipped, or a stray backslash or control byte inserted. *)
let mangle_gen base =
  let open QCheck.Gen in
  let* s = base in
  let n = String.length s in
  let* at = int_bound n in
  let insert c =
    String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
  in
  oneof
    [
      return (String.sub s 0 at);
      (if n = 0 then return s
       else
         let* flip = int_range 1 255 in
         let i = min at (n - 1) in
         return
           (String.mapi
              (fun j c -> if j = i then Char.chr (Char.code c lxor flip) else c)
              s));
      return (insert '\\');
      map (fun c -> insert (Char.chr c)) (int_bound 0x1f);
    ]

(* Token soup: JSON fragments strung at random, bare or inside a string
   or a member, so escapes, surrogates and number edges meet every
   context the grammar has. *)
let soup_gen =
  let open QCheck.Gen in
  let soup =
    map (String.concat "")
      (list_size (int_range 1 10)
         (oneofl
            [ "{"; "}"; "["; "]"; ":"; ","; " "; "\""; "\\"; "\\u";
              "\\ud834"; "\\udd1e"; "\\u0041"; "\\uDBFF"; "\\x";
              "\\n"; "\\/"; "0"; "01"; "-"; "1"; "."; "e"; "E+"; "true";
              "tru"; "null"; "\"id\""; "\"a\":"; "\x01"; "\x7f"; "\xff";
              "0123456789abcdef" ]))
  in
  oneof
    [
      soup;
      map (fun s -> "\"" ^ s ^ "\"") soup;
      map (fun s -> "{\"k\":" ^ s ^ "}") soup;
      map (fun s -> "[" ^ s ^ "]") soup;
    ]

let scan_agrees_prop =
  let docs = QCheck.Gen.map Json.to_string json_gen in
  let lines =
    QCheck.Gen.oneof
      [
        docs;
        Serve_fuzz.frame_gen;
        Serve_fuzz.mangled_gen;
        mangle_gen docs;
        mangle_gen Serve_fuzz.frame_gen;
        soup_gen;
      ]
  in
  QCheck.Test.make ~count:2000 ~name:"scan agrees with parse"
    (QCheck.make ~print:(Printf.sprintf "%S") lines)
    scan_agrees

let test_scan_cases () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  let cases =
    [
      {|{"i\u0064":"x","batch":[]}|};
      {|{"id":"first","id":"second","batch":[1]}|};
      deep 64;
      deep 65;
      "{\"a\":" ^ deep 63 ^ "}";
      "{\"a\":" ^ deep 64 ^ "}";
      {|"\ud834"|};
      {|"\ud834\u0041"|};
      {|"\udd1e"|};
      {|"\ud834\udd1e"|};
      {|{"k":"\ud834\udd1e","\ud834\udd1e":1}|};
      "-0";
      "01";
      "1.";
      "1e+";
      "[-0,1e+5,2.5E-3]";
      "tru";
      "true";
      {|{"id":"x"} x|};
      {|{"id":"x"}   |};
      "[1,2]";
      "\"s\"";
      "{}";
      " { } ";
      "";
      "{\"a\":1,}";
      "[1,]";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S" s) true (scan_agrees s))
    cases;
  let keys s =
    match Json.scan s with
    | Json.Object ms -> List.map (fun (m : Json.member) -> m.key) ms
    | _ -> Alcotest.failf "%S: expected an object" s
  in
  Alcotest.(check (list string)) "escaped key decodes" [ "id"; "batch" ]
    (keys {|{"i\u0064":"x","batch":[]}|});
  Alcotest.(check bool) "depth 64 accepted" true
    (Json.scan (deep 64) = Json.Not_object);
  Alcotest.(check bool) "depth 65 rejected" true
    (Json.scan (deep 65) = Json.Rejected);
  Alcotest.(check bool) "lone surrogate rejected" true
    (Json.scan {|"\ud834"|} = Json.Rejected);
  Alcotest.(check (list string)) "paired surrogate key decodes"
    [ "k"; "\xf0\x9d\x84\x9e" ]
    (keys {|{"k":"\ud834\udd1e","\ud834\udd1e":1}|});
  Alcotest.(check bool) "{} is an empty object" true
    (Json.scan "{}" = Json.Object []);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " rejected") true
        (Json.scan s = Json.Rejected))
    [ "01"; "1."; "1e+"; "tru"; {|{"id":"x"} x|} ];
  (* the envelope reads the escaped key as [id], and the first of two
     [id]s *)
  let id_of line =
    match Protocol.decode_envelope ~max_batch:64 line with
    | Ok (Protocol.Batch { id; _ }) -> id
    | _ -> Alcotest.failf "%s: expected a batch" line
  in
  Alcotest.(check string) "escaped id" "x"
    (id_of {|{"i\u0064":"x","batch":[]}|});
  Alcotest.(check string) "first id wins" "first"
    (id_of {|{"id":"first","id":"second","batch":[]}|});
  match
    Protocol.decode_envelope ~max_batch:64 {|{"id":7,"id":"x","batch":[]}|}
  with
  | Error e ->
      Alcotest.(check string) "a non-string first id" "bad-request"
        e.Protocol.kind
  | Ok _ -> Alcotest.fail "the first binding of id is not a string"

(* ---- Protocol ---- *)

let test_decode_batch () =
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"x","budget_cycles":500,"batch":[{"op":"simulate","kernel":7},{"op":"hierarchy","kernel":3}]}|}
  with
  | Ok (Protocol.Batch { id; budget_cycles; items; _ }) ->
      Alcotest.(check string) "id" "x" id;
      Alcotest.(check (option (float 0.0))) "budget" (Some 500.0)
        budget_cycles;
      Alcotest.(check int) "items" 2 (List.length items);
      Alcotest.(check bool) "all well-formed" true
        (List.for_all Result.is_ok items)
  | Ok _ -> Alcotest.fail "expected a batch"
  | Error e -> Alcotest.fail e.Protocol.message

let test_decode_inline_sugar () =
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"y","op":"simulate","kernel":7}|}
  with
  | Ok (Protocol.Batch { items; _ }) ->
      Alcotest.(check int) "one item" 1 (List.length items)
  | _ -> Alcotest.fail "inline sugar must decode as a one-item batch"

let test_decode_envelope_errors () =
  let kind_of line =
    match Protocol.decode_frame ~max_batch:2 line with
    | Error e -> e.Protocol.kind
    | Ok _ -> Alcotest.failf "%s: must be rejected" line
  in
  Alcotest.(check string) "no id" "bad-request"
    (kind_of {|{"op":"simulate","kernel":7}|});
  Alcotest.(check string) "non-string id" "bad-request"
    (kind_of {|{"id":7,"op":"simulate","kernel":7}|});
  Alcotest.(check string) "not json" "bad-frame" (kind_of "{nope");
  Alcotest.(check string) "not an object" "bad-frame" (kind_of "[1,2]");
  Alcotest.(check string) "oversized batch" "batch-too-large"
    (kind_of
       {|{"id":"x","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":2},{"op":"simulate","kernel":3}]}|})

let test_decode_item_errors () =
  (* item-level problems stay per-item: the envelope still decodes *)
  match
    Protocol.decode_frame ~max_batch:64
      {|{"id":"x","batch":[{"op":"simulate","kernel":99},{"op":"simulate","kernel":7,"machine":"c240;banks=0"},{"op":"wat","kernel":7},{"op":"simulate","kernel":7}]}|}
  with
  | Ok (Protocol.Batch { items; _ }) ->
      let kinds =
        List.map
          (function
            | Ok _ -> "ok"
            | Error (e : Protocol.perror) -> e.Protocol.kind)
          items
      in
      Alcotest.(check (list string)) "per-item kinds"
        [ "bad-request"; "parse-failure"; "bad-request"; "ok" ]
        kinds
  | _ -> Alcotest.fail "envelope must decode"

let test_decode_envelope_leaves_items_raw () =
  (* the envelope decode looks at no item field and builds no item: an
     item that fails to decode is still a raw JSON value once forced, and
     decode_frame is the envelope decode followed by the item decode *)
  let line =
    {|{"id":"x","deadline_ms":5,"batch":[{"op":"wat"},{"op":"simulate","kernel":7}]}|}
  in
  (match Protocol.decode_envelope ~max_batch:64 line with
  | Ok (Protocol.Batch { id; deadline_ms; items; _ }) ->
      Alcotest.(check string) "id" "x" id;
      Alcotest.(check (option (float 0.0))) "deadline" (Some 5.0) deadline_ms;
      Alcotest.(check bool) "items not built" false (Lazy.is_val items);
      let items = Lazy.force items in
      Alcotest.(check int) "two raw items" 2 (List.length items);
      let kinds =
        List.map
          (function Ok _ -> "ok" | Error (e : Protocol.perror) -> e.kind)
          (List.map Protocol.decode_item items)
      in
      Alcotest.(check (list string)) "item decode" [ "bad-request"; "ok" ]
        kinds
  | _ -> Alcotest.fail "envelope must decode");
  (match Protocol.decode_envelope ~max_batch:1 line with
  | Error e ->
      Alcotest.(check string) "max_batch is an envelope check"
        "batch-too-large" e.Protocol.kind
  | Ok _ -> Alcotest.fail "batch over max_batch must be rejected");
  match
    (Protocol.decode_envelope ~max_batch:64 {|{"id":"x","batch":{}}|})
  with
  | Error e ->
      Alcotest.(check string) "batch must be an array" "bad-request"
        e.Protocol.kind
  | Ok _ -> Alcotest.fail "a non-array batch must be rejected"

let test_frame_key () =
  let k = Session.frame_key ~id:"a" ~payload:"p" in
  Alcotest.(check string) "deterministic" k
    (Session.frame_key ~id:"a" ~payload:"p");
  Alcotest.(check bool) "id matters" true
    (k <> Session.frame_key ~id:"b" ~payload:"p");
  Alcotest.(check bool) "payload matters" true
    (k <> Session.frame_key ~id:"a" ~payload:"q");
  (* the separator is unambiguous: ("ab","c") <> ("a","bc") *)
  Alcotest.(check bool) "no concat collision" true
    (Session.frame_key ~id:"ab" ~payload:"c"
    <> Session.frame_key ~id:"a" ~payload:"bc")

(* ---- Server ---- *)

let create_ok config =
  match Server.create config with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let reply_json server line = parse_ok (Server.handle_line server line)

let get path j =
  List.fold_left (fun acc f -> Option.bind acc (fun j -> Json.mem j f))
    (Some j) path

let get_str path j = Option.bind (get path j) Json.str

let first_result j =
  match Option.bind (Json.mem j "results") Json.arr with
  | Some (r :: _) -> r
  | _ -> Alcotest.fail "reply has no results"

let test_server_simulate () =
  let s = create_ok Server.default_config in
  let j = reply_json s {|{"id":"a","op":"simulate","kernel":7}|} in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "tier" (Some "full")
    (get_str [ "tier" ] (first_result j));
  Alcotest.(check bool) "cpl present" true
    (get [ "cpl" ] (first_result j) <> None)

let test_server_budget_degrades () =
  let s = create_ok Server.default_config in
  let j =
    reply_json s {|{"id":"a","budget_cycles":100,"op":"simulate","kernel":7}|}
  in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "estimate tier" (Some "estimate")
    (get_str [ "tier" ] (first_result j));
  Alcotest.(check bool) "degraded diagnostic" true
    (get_str [ "degraded" ] (first_result j) <> None);
  Alcotest.(check int) "degraded counter" 1 (Server.stats s).Server.degraded

let test_server_typed_errors () =
  let s = create_ok { Server.default_config with Server.max_batch = 2 } in
  let kind_of line =
    match get_str [ "error"; "kind" ] (reply_json s line) with
    | Some k -> k
    | None -> Alcotest.failf "%s: no error kind" line
  in
  Alcotest.(check string) "bad frame" "bad-frame" (kind_of "}{");
  Alcotest.(check string) "batch too large" "batch-too-large"
    (kind_of
       {|{"id":"x","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":2},{"op":"simulate","kernel":3}]}|});
  (* item-level failure: envelope ok, per-item typed error *)
  let j = reply_json s {|{"id":"y","op":"simulate","kernel":99}|} in
  Alcotest.(check (option bool)) "envelope ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "item kind" (Some "bad-request")
    (get_str [ "error"; "kind" ] (first_result j));
  let j = reply_json s {|{"id":"z","op":"simulate","kernel":7,"machine":"no-such-preset"}|} in
  Alcotest.(check (option string)) "unknown preset" (Some "parse-failure")
    (get_str [ "error"; "kind" ] (first_result j))

let test_server_control () =
  let s = create_ok Server.default_config in
  let j = reply_json s {|{"op":"ping"}|} in
  Alcotest.(check (option bool)) "pong" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  let j = reply_json s {|{"id":"st","op":"stats"}|} in
  Alcotest.(check bool) "stats body" true
    (get [ "stats"; "server"; "frames" ] j <> None);
  Alcotest.(check bool) "not yet stopping" false (Server.shutdown_requested s);
  ignore (Server.handle_line s {|{"op":"shutdown"}|});
  Alcotest.(check bool) "stopping" true (Server.shutdown_requested s)

let frame_a = {|{"id":"a","batch":[{"op":"simulate","kernel":7},{"op":"hierarchy","kernel":3}]}|}

let test_server_idempotent_retry () =
  let dir = tmp_dir "retry" in
  let config =
    {
      Server.default_config with
      Server.session = Some (Filename.concat dir "s.journal");
      cache_dir = Some (Filename.concat dir "cache");
    }
  in
  let s = create_ok config in
  let r1 = Server.handle_line s frame_a in
  let r2 = Server.handle_line s frame_a in
  Alcotest.(check string) "byte-identical retry" r1 r2;
  Alcotest.(check int) "second was a replay" 1
    (Server.stats s).Server.replayed_frames

let test_server_session_resume () =
  let dir = tmp_dir "resume" in
  let path = Filename.concat dir "s.journal" in
  let config = { Server.default_config with Server.session = Some path } in
  let s1 = create_ok config in
  let r1 = Server.handle_line s1 frame_a in
  (* a new server on the same journal serves the same bytes, without
     re-executing the items *)
  let s2 = create_ok config in
  let r2 = Server.handle_line s2 frame_a in
  Alcotest.(check string) "resumed bytes" r1 r2;
  Alcotest.(check int) "replayed" 1 (Server.stats s2).Server.replayed_frames;
  Alcotest.(check int) "no items re-run" 0 (Server.stats s2).Server.items

let test_server_session_torn_tail () =
  let dir = tmp_dir "torn" in
  let path = Filename.concat dir "s.journal" in
  let config = { Server.default_config with Server.session = Some path } in
  let s1 = create_ok config in
  let r1 = Server.handle_line s1 frame_a in
  (* the previous server died holding a torn final line *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "item\tkey=deadbeef\tindex=0\tdata=truncat";
  close_out oc;
  let s2 = create_ok config in
  Alcotest.(check string) "repaired and replayed" r1
    (Server.handle_line s2 frame_a)

let test_server_refuses_foreign_journal () =
  let dir = tmp_dir "foreign" in
  let path = Filename.concat dir "s.journal" in
  let oc = open_out_bin path in
  output_string oc "important data, definitely not a session journal\n";
  close_out oc;
  (match
     Server.create { Server.default_config with Server.session = Some path }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a foreign file must never be clobbered");
  let ic = open_in_bin path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "file untouched"
    "important data, definitely not a session journal" line

(* Read a channel's remaining lines to EOF, then close it. *)
let read_lines ic =
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_serve_loop_oversize () =
  (* the stdio shape through the supervisor: frames in on one pipe,
     replies out on another.  A line longer than max_frame_bytes is
     discarded incrementally and answered with a typed error in its
     arrival slot (the sequencer writes it in order), and the frames
     around it still get their replies. *)
  let r1, w1 = Unix.pipe () and r2, w2 = Unix.pipe () in
  let server =
    create_ok { Server.default_config with Server.max_frame_bytes = 256 }
  in
  let sup = Supervisor.create server in
  let client = Unix.out_channel_of_descr w1 in
  output_string client "{\"op\":\"ping\"}\n";
  output_string client
    ("{\"id\":\"big\",\"pad\":\"" ^ String.make 400 'a' ^ "\"}\n");
  output_string client "{\"op\":\"shutdown\"}\n";
  close_out client;
  (* everything fits the pipe buffers, so one thread can serve it all *)
  let report = Supervisor.handle_connection sup ~output:w2 r1 in
  let lines = read_lines (Unix.in_channel_of_descr r2) in
  let kind l = get_str [ "error"; "kind" ] (parse_ok l) in
  let ok l = Option.bind (Json.mem (parse_ok l) "ok") Json.bool in
  Alcotest.(check int) "one oversize reply" 1
    (List.length (List.filter (fun l -> kind l = Some "frame-too-large") lines));
  match lines with
  | [ ping; oversize; shutdown; goodbye ] ->
      Alcotest.(check (option bool)) "ping ok" (Some true) (ok ping);
      Alcotest.(check (option string)) "oversize in its arrival slot"
        (Some "frame-too-large") (kind oversize);
      Alcotest.(check (option bool)) "shutdown ok" (Some true) (ok shutdown);
      Alcotest.(check (option string)) "then the drain notice"
        (Some "draining") (kind goodbye);
      Alcotest.(check bool) "connection drained" true
        (report.Supervisor.outcome = Supervisor.Drained);
      Alcotest.(check int) "oversize counted as rejected" 1
        (Server.stats server).Server.rejected
  | _ ->
      Alcotest.failf
        "expected ping, oversize, shutdown, drain notice; got %d lines"
        (List.length lines)

(* The frame keys of a session journal's frame records, in file order
   (a frame record starts "frame\tkey=..."). *)
let frame_keys_in path =
  let ic = open_in_bin path in
  let rec go acc =
    match String.split_on_char '\t' (input_line ic) with
    | "frame" :: key :: _ when String.starts_with ~prefix:"key=" key ->
        go (String.sub key 4 (String.length key - 4) :: acc)
    | _ -> go acc
    | exception End_of_file -> List.rev acc
  in
  let keys = go [] in
  close_in ic;
  keys

let test_stdio_drain_wakes_idle_reader () =
  (* an idle stdio-shaped connection (two pipes, input held open) is
     blocked in a read that shutdown(2) cannot cut; request_drain must
     still wake it, and the drain must leave a compacted journal *)
  let dir = tmp_dir "stdio_drain" in
  let session = Filename.concat dir "s.journal" in
  let server =
    create_ok { Server.default_config with Server.session = Some session }
  in
  let sup = Supervisor.create server in
  let frame id = Printf.sprintf {|{"id":"%s","op":"validate"}|} id in
  (* send the larger frame key first, so append order is not canonical *)
  let frames =
    List.sort
      (fun a b ->
        compare (Session.frame_key ~id:b ~payload:(frame b))
          (Session.frame_key ~id:a ~payload:(frame a)))
      [ "x"; "y" ]
    |> List.map frame
  in
  let r1, w1 = Unix.pipe () and r2, w2 = Unix.pipe () in
  let report = ref None in
  let th =
    Thread.create
      (fun () ->
        report := Some (Supervisor.handle_connection sup ~output:w2 r1))
      ()
  in
  let client = Unix.out_channel_of_descr w1 in
  List.iter (fun f -> output_string client (f ^ "\n")) frames;
  flush client;
  let replies = Unix.in_channel_of_descr r2 in
  let first = [ input_line replies; input_line replies ] in
  let appended = frame_keys_in session in
  Alcotest.(check int) "two frame records" 2 (List.length appended);
  Alcotest.(check bool) "journal appended in arrival order" true
    (appended = List.rev (List.sort compare appended));
  Supervisor.request_drain sup;
  let t0 = Unix.gettimeofday () in
  while !report = None && Unix.gettimeofday () -. t0 < 5.0 do
    Thread.delay 0.01
  done;
  if !report = None then begin
    close_out client;
    Thread.join th;
    Alcotest.fail "request_drain did not wake the idle pipe reader"
  end;
  Thread.join th;
  close_out client;
  Alcotest.(check bool) "woken within a poll slice or two" true
    (Unix.gettimeofday () -. t0 < 1.0);
  Alcotest.(check bool) "outcome Drained" true
    (Option.map (fun r -> r.Supervisor.outcome) !report
    = Some Supervisor.Drained);
  let kind l = get_str [ "error"; "kind" ] (parse_ok l) in
  Alcotest.(check (list (option string))) "both frames answered"
    [ None; None ] (List.map kind first);
  Alcotest.(check (list (option string))) "then the drain notice, then EOF"
    [ Some "draining" ]
    (List.map kind (read_lines replies));
  Supervisor.drain_and_join sup;
  Alcotest.(check (list string)) "journal compacted: keys ascending"
    (List.sort compare appended) (frame_keys_in session)

let test_replayed_items_count_own_indexes () =
  (* a server died after journaling k of a frame's n items but before
     its frame record: the restarted server takes exactly those k from
     the journal and computes only the other n - k *)
  let dir = tmp_dir "partial" in
  let path = Filename.concat dir "s.journal" in
  let frame =
    {|{"id":"p","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":3},{"op":"simulate","kernel":7},{"op":"hierarchy","kernel":3}]}|}
  in
  let n = 4 and k = 2 in
  let key = Session.frame_key ~id:"p" ~payload:frame in
  (match Session.open_ path with
  | Error e -> Alcotest.fail e
  | Ok s ->
      for i = 0 to k - 1 do
        Session.record_item s ~key ~index:i
          (Printf.sprintf {|{"ok":true,"marker":%d}|} i)
      done);
  let server =
    create_ok { Server.default_config with Server.session = Some path }
  in
  let reply = reply_json server frame in
  let results =
    match Option.bind (Json.mem reply "results") Json.arr with
    | Some rs -> rs
    | None -> Alcotest.fail "reply has no results"
  in
  Alcotest.(check int) "n results" n (List.length results);
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "item %d %s" i
           (if i < k then "replayed" else "computed"))
        (i < k)
        (Json.mem r "marker" <> None))
    results;
  Alcotest.(check int) "replayed_items = k" k
    (Server.stats server).Server.replayed_items;
  let ic = open_in_bin path in
  let items = ref 0 in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | "item" :: _ -> incr items
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "only n - k items journaled anew" n !items

(* Computed items reach the reply as values; only journaled item lines
   are parsed, and one that does not parse becomes a typed internal
   error for its index while the rest of the batch is answered. *)
let test_unreadable_journaled_item () =
  let dir = tmp_dir "unreadable" in
  let path = Filename.concat dir "s.journal" in
  let frame =
    {|{"id":"u","batch":[{"op":"simulate","kernel":1},{"op":"simulate","kernel":3},{"op":"simulate","kernel":7}]}|}
  in
  let key = Session.frame_key ~id:"u" ~payload:frame in
  (match Session.open_ path with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Session.record_item s ~key ~index:0 {|{"ok":true,"tier":|};
      Session.record_item s ~key ~index:1
        {|{"ok":true,"tier":"estimate","marker":1}|});
  let server =
    create_ok { Server.default_config with Server.session = Some path }
  in
  let results =
    match Option.bind (Json.mem (reply_json server frame) "results") Json.arr with
    | Some rs -> rs
    | None -> Alcotest.fail "reply has no results"
  in
  (match results with
  | [ bad; replayed; computed ] ->
      let error_field f =
        Option.bind (Json.mem bad "error") (fun e ->
            Option.bind (Json.mem e f) Json.str)
      in
      Alcotest.(check (option bool)) "item 0 failed" (Some false)
        (Option.bind (Json.mem bad "ok") Json.bool);
      Alcotest.(check (option string)) "item 0 kind" (Some "internal")
        (error_field "kind");
      Alcotest.(check bool) "item 0 names the unreadable line" true
        (match error_field "message" with
        | Some m -> String.starts_with ~prefix:"unreadable journaled item" m
        | None -> false);
      Alcotest.(check bool) "item 1 replayed" true
        (Json.mem replayed "marker" <> None);
      Alcotest.(check (option string)) "item 2 computed" (Some "full")
        (Option.bind (Json.mem computed "tier") Json.str)
  | _ -> Alcotest.fail "expected three results");
  Alcotest.(check int) "the journaled estimate counts as degraded" 1
    (Server.stats server).Server.degraded

(* ---- the reply around encoded items ---- *)

(* A batch item as the session holds it before the frame arrives. *)
type held =
  | Journaled of Json.t  (** a readable item line *)
  | Unreadable of string  (** a line that does not parse *)
  | Computed  (** no line: the server computes the item *)

let reply_id_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (int_range 1 6);
        oneofl [ "\""; "\\"; "/"; "\n"; "\t"; "\xc3\xa9"; "\xf0\x9d\x84\x9e"; "\xff" ];
        map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f);
      ]
  in
  map (String.concat "") (list_size (int_range 1 5) piece)

let reply_case_gen =
  let open QCheck.Gen in
  pair reply_id_gen
    (list_size (int_range 0 4)
       (frequency
          [
            (3, map (fun j -> Journaled j) json_gen);
            (* a document and one more byte never parses *)
            (1, map (fun j -> Unreadable (Json.to_string j ^ "}")) json_gen);
            (1, return Computed);
          ]))

let print_reply_case (id, held) =
  Printf.sprintf "id %S: %s" id
    (String.concat "; "
       (List.map
          (function
            | Journaled j -> Json.to_string j
            | Unreadable l -> "unreadable " ^ l
            | Computed -> "computed")
          held))

(* Whatever the items are — journaled values, unreadable lines (the
   internal error items), computed items, none at all — and whatever
   bytes the id holds, the reply built around the items' encodings is
   [Json.to_string] of the reply's tree. *)
let reply_encoding_prop =
  QCheck.Test.make ~count:60 ~name:"reply = to_string of its tree"
    (QCheck.make ~print:print_reply_case reply_case_gen)
    (fun (id, held) ->
      let dir = tmp_dir "encode" in
      let path = Filename.concat dir "s.journal" in
      (* an unknown op answers inside the batch without simulating *)
      let frame =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Str id);
               ( "batch",
                 Json.Arr
                   (List.map
                      (fun _ -> Json.Obj [ ("op", Json.Str "nope") ])
                      held) );
             ])
      in
      let key = Session.frame_key ~id ~payload:frame in
      (match Session.open_ path with
      | Error e -> Alcotest.fail e
      | Ok s ->
          List.iteri
            (fun index -> function
              | Journaled j ->
                  Session.record_item s ~key ~index (Json.to_string j)
              | Unreadable line -> Session.record_item s ~key ~index line
              | Computed -> ())
            held);
      let server =
        create_ok { Server.default_config with Server.session = Some path }
      in
      let reply = Server.handle_line server frame in
      let computed =
        match Option.bind (Json.mem (parse_ok reply) "results") Json.arr with
        | Some rs -> Array.of_list rs
        | None -> [||]
      in
      let internal msg =
        Json.Obj
          [
            ("ok", Json.Bool false);
            ( "error",
              Protocol.error_json
                (Protocol.perror ~site:"Server.reply" ~kind:"internal"
                   ("unreadable journaled item: " ^ msg)) );
          ]
      in
      let results =
        List.mapi
          (fun i -> function
            | Journaled j -> j
            | Unreadable line -> (
                match Json.parse line with
                | Error m -> internal m
                | Ok _ -> Json.Null)
            | Computed -> computed.(i))
          held
      in
      Array.length computed = List.length held
      && reply
         = Json.to_string
             (Json.Obj
                [
                  ("id", Json.Str id);
                  ("ok", Json.Bool true);
                  ("results", Json.Arr results);
                ]))

(* A session hit is looked up before the items are decoded; it must
   still never mask a frame-level error, never answer a different
   payload, and replay a journaled item error byte for byte. *)
let test_session_hit_keeps_frame_checks () =
  let dir = tmp_dir "hitcheck" in
  let path = Filename.concat dir "s.journal" in
  let config = { Server.default_config with Server.session = Some path } in
  let three =
    {|{"id":"m","batch":[{"op":"wat"},{"op":"simulate","kernel":99},{"op":"wat","kernel":1}]}|}
  in
  let bad_item = {|{"id":"b","batch":[{"op":"nope","kernel":7}]}|} in
  let s1 = create_ok config in
  let r_three = Server.handle_line s1 three in
  let r_bad = Server.handle_line s1 bad_item in
  Alcotest.(check int) "first serve decodes every item" 4
    (Server.stats s1).Server.decoded_items;
  (* (a) the journaled id with a different payload is computed fresh *)
  let other = {|{"id":"m","batch":[{"op":"wat","kernel":2}]}|} in
  let r_other = Server.handle_line s1 other in
  Alcotest.(check bool) "a different payload is not the journaled reply"
    true (r_other <> r_three);
  Alcotest.(check int) "computed, not replayed" 0
    (Server.stats s1).Server.replayed_frames;
  Alcotest.(check int) "its item was decoded" 5
    (Server.stats s1).Server.decoded_items;
  (* a computed frame is not indexed; its first replay indexes it, and
     the next arrival is answered from the index *)
  let indexed s line =
    Server.replay_of_span s (Bytes.of_string line) ~pos:0
      ~len:(String.length line)
  in
  Alcotest.(check (option string)) "computed: not indexed" None
    (indexed s1 three);
  Alcotest.(check string) "replayed from the session" r_three
    (Server.handle_line s1 three);
  Alcotest.(check (option string)) "replayed: indexed" (Some r_three)
    (indexed s1 three);
  Alcotest.(check string) "replayed from the index" r_three
    (Server.handle_line s1 three);
  Alcotest.(check int) "both count as replays" 2
    (Server.stats s1).Server.replayed_frames;
  (* (b) restarted with a smaller max_batch, the journaled 3-item frame
     (which the first process answered from its index) is a
     batch-too-large rejection, not a replay *)
  let s2 = create_ok { config with Server.max_batch = 2 } in
  Alcotest.(check (option string)) "a new process starts with no index"
    None (indexed s2 three);
  let reply, rejected = Server.handle_frame s2 three in
  Alcotest.(check bool) "whole-frame rejection" true rejected;
  Alcotest.(check (option string)) "batch-too-large" (Some "batch-too-large")
    (get_str [ "error"; "kind" ] (parse_ok reply));
  Alcotest.(check int) "no replay" 0 (Server.stats s2).Server.replayed_frames;
  Alcotest.(check (option string)) "a rejection is not indexed" None
    (indexed s2 three);
  (* (c) a journaled frame holding a bad item replays byte-identically,
     item error included; (d) a replay decodes no item *)
  let s3 = create_ok config in
  Alcotest.(check string) "bad item replayed byte for byte" r_bad
    (Server.handle_line s3 bad_item);
  Alcotest.(check (option string)) "item error kept" (Some "bad-request")
    (get_str [ "error"; "kind" ] (first_result (parse_ok r_bad)));
  Alcotest.(check string) "3-item frame replayed byte for byte" r_three
    (Server.handle_line s3 three);
  let st = Server.stats s3 in
  Alcotest.(check int) "both replayed" 2 st.Server.replayed_frames;
  Alcotest.(check int) "no item decoded on a replay" 0 st.Server.decoded_items;
  Alcotest.(check int) "no item evaluated on a replay" 0 st.Server.items

(* A frame of [n] distinct simulate items under id [id]; 32 of them
   (about 3.6 KB) are the shape of a replayed benchmark frame. *)
let frame_items ?(id = "warm") n =
  let item i =
    Printf.sprintf
      {|{"op":"simulate","kernel":%d,"machine":"c240;banks=%d;vl=%d;pipes.mul=%d","opt":"v61"}|}
      (List.nth [ 1; 2; 3; 7 ] (i mod 4))
      (8 lsl (i mod 4)) (64 + (8 * i)) (1 + (i mod 3))
  in
  Printf.sprintf {|{"id":"%s","budget_cycles":50,"batch":[%s]}|} id
    (String.concat "," (List.init n item))

let frame_32 = frame_items 32

(* A replayed frame builds none of its items, so it allocates a small
   fraction of what parsing its line into a tree does.  Both replay
   paths are measured: a line's first session replay in a process (the
   envelope scan, the digest and the lookup; each of 100 servers
   restarted on the session answers the line once) and every later one
   (the replay index: a hash and a compare, well under the scan). *)
let test_replay_builds_no_item_tree () =
  let dir = tmp_dir "notree" in
  let config =
    {
      Server.default_config with
      Server.session = Some (Filename.concat dir "s.journal");
    }
  in
  let line = frame_32 in
  let s = create_ok config in
  let first = Server.handle_line s line in
  let decoded = (Server.stats s).Server.decoded_items in
  Alcotest.(check int) "the warm-up decodes 32 items" 32 decoded;
  let words f =
    let w0 = Gc.minor_words () in
    for i = 0 to 99 do
      ignore (Sys.opaque_identity (f i))
    done;
    (Gc.minor_words () -. w0) /. 100.0
  in
  let replay s =
    let reply, rejected = Server.handle_frame s line in
    if rejected || reply <> first then Alcotest.fail "replay changed";
    reply
  in
  let parse_words = words (fun _ -> Json.parse line) in
  let restarted = Array.init 100 (fun _ -> create_ok config) in
  let scan_words = words (fun i -> replay restarted.(i)) in
  Alcotest.(check bool)
    (Printf.sprintf "first replay %.0f words < parse %.0f / 4" scan_words
       parse_words)
    true
    (scan_words < parse_words /. 4.0);
  Array.iter
    (fun r ->
      let st = Server.stats r in
      Alcotest.(check (pair int int))
        "one replay from the session, no item decoded"
        (1, 0)
        (st.Server.replayed_frames, st.Server.decoded_items))
    restarted;
  ignore (replay s : string);
  let index_words = words (fun _ -> replay s) in
  Alcotest.(check bool)
    (Printf.sprintf "indexed replay %.0f words < first replay %.0f / 4"
       index_words scan_words)
    true
    (index_words < scan_words /. 4.0);
  let st = Server.stats s in
  Alcotest.(check int) "no item decoded on a replay" decoded
    st.Server.decoded_items;
  Alcotest.(check int) "every replay served from the session" 101
    st.Server.replayed_frames

(* ---- Supervisor layer: limiter, sequencer, conn_io, connections ---- *)

module Limiter = Convex_serve.Limiter
module Sequencer = Convex_serve.Sequencer
module Conn_io = Convex_serve.Conn_io

let fake_clock start =
  let t = ref start in
  ((fun () -> !t), fun dt -> t := !t +. dt)

let astr_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_limiter_frame_rate () =
  let now, advance = fake_clock 0.0 in
  let lim =
    Limiter.make
      ~config:
        {
          Limiter.max_frames_per_s = Some 2.0;
          max_bytes_per_s = None;
          burst_s = 1.0;
        }
      ~now ()
  in
  (* burst capacity 2 frames, then dry until the clock refills *)
  Alcotest.(check bool) "1st admitted" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted);
  Alcotest.(check bool) "2nd admitted" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted);
  (match Limiter.admit lim ~bytes:10 with
  | Limiter.Throttled why ->
      Alcotest.(check bool) "reason quotes the rate" true
        (astr_contains why "frame")
  | Limiter.Admitted -> Alcotest.fail "3rd frame must throttle");
  advance 0.5;
  Alcotest.(check bool) "refill admits" true
    (Limiter.admit lim ~bytes:10 = Limiter.Admitted)

let test_limiter_byte_rate_consumes_nothing_on_reject () =
  let now, advance = fake_clock 0.0 in
  let lim =
    Limiter.make
      ~config:
        {
          Limiter.max_frames_per_s = None;
          max_bytes_per_s = Some 100.0;
          burst_s = 1.0;
        }
      ~now ()
  in
  Alcotest.(check bool) "60 bytes fit" true
    (Limiter.admit lim ~bytes:60 = Limiter.Admitted);
  (* 41 more would overdraw: rejected, and rejection must not consume *)
  Alcotest.(check bool) "41 rejected" true
    (Limiter.admit lim ~bytes:41 = Limiter.Admitted = false);
  Alcotest.(check bool) "40 still fit (nothing was consumed)" true
    (Limiter.admit lim ~bytes:40 = Limiter.Admitted);
  advance 10.0;
  Alcotest.(check bool) "bucket caps at burst" true
    (Limiter.admit lim ~bytes:100 = Limiter.Admitted)

let test_sequencer_reorders () =
  let out = Buffer.create 64 in
  let seqr =
    Sequencer.create ~write:(fun line ->
        Buffer.add_string out (line ^ "\n");
        Ok ())
  in
  Sequencer.submit seqr ~seq:2 "two";
  Sequencer.submit seqr ~seq:1 "one";
  Alcotest.(check int) "nothing written before seq 0" 0 (Sequencer.written seqr);
  Alcotest.(check int) "two pending" 2 (Sequencer.pending seqr);
  Sequencer.submit seqr ~seq:0 "zero";
  Alcotest.(check string) "arrival order restored" "zero\none\ntwo\n"
    (Buffer.contents out);
  Alcotest.(check int) "all written" 3 (Sequencer.written seqr)

let test_sequencer_latches_first_failure () =
  let wrote = ref 0 in
  let seqr =
    Sequencer.create ~write:(fun _ ->
        if !wrote = 0 then begin
          incr wrote;
          Ok ()
        end
        else Error "peer gone")
  in
  Sequencer.submit seqr ~seq:0 "a";
  Sequencer.submit seqr ~seq:1 "b";
  Sequencer.submit seqr ~seq:2 "c";
  Alcotest.(check (option string)) "failure latched" (Some "peer gone")
    (Sequencer.failure seqr);
  Alcotest.(check int) "later replies dropped, not retried" 1 !wrote;
  Alcotest.(check int) "one reply reached the peer" 1 (Sequencer.written seqr)

let test_conn_io_events () =
  let now = Unix.gettimeofday in
  (* torn frame: bytes but no newline, then hangup *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a "half a frame" 0 12 : int);
  Unix.close a;
  (match Conn_io.read_line (Conn_io.reader ~now ~limit:1024 b) with
  | Conn_io.Torn 12 -> ()
  | ev ->
      Alcotest.failf "expected Torn 12, got %s"
        (match ev with
        | Conn_io.Line _ -> "Line"
        | Conn_io.Eof -> "Eof"
        | Conn_io.Torn n -> Printf.sprintf "Torn %d" n
        | _ -> "other"));
  Unix.close b;
  (* idle timeout: nothing ever arrives *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match
     Conn_io.read_line (Conn_io.reader ~idle_timeout_s:0.05 ~now ~limit:1024 b)
   with
  | Conn_io.Idle_timeout -> ()
  | _ -> Alcotest.fail "expected Idle_timeout");
  (* frame timeout: a started frame that never completes (slow loris) *)
  ignore (Unix.write_substring a "{" 0 1 : int);
  (match
     Conn_io.read_line
       (Conn_io.reader ~idle_timeout_s:5.0 ~frame_timeout_s:0.05 ~now
          ~limit:1024 b)
   with
  | Conn_io.Frame_timeout 1 -> ()
  | _ -> Alcotest.fail "expected Frame_timeout 1");
  Unix.close a;
  Unix.close b;
  (* oversized line is discarded incrementally and reported whole *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 100 'x' ^ "\n" in
  ignore (Unix.write_substring a big 0 (String.length big) : int);
  ignore (Unix.write_substring a "short\n" 0 6 : int);
  let r = Conn_io.reader ~now ~limit:10 b in
  (match Conn_io.read_line r with
  | Conn_io.Oversized 100 -> ()
  | _ -> Alcotest.fail "expected Oversized 100");
  (match Conn_io.read_line r with
  | Conn_io.Line "short" -> ()
  | _ -> Alcotest.fail "expected the next frame intact");
  Unix.close a;
  Unix.close b

let event_name = function
  | Conn_io.Line l -> Printf.sprintf "Line %S" l
  | Conn_io.Replay { reply; length } -> Printf.sprintf "Replay %S %d" reply length
  | Conn_io.Oversized n -> Printf.sprintf "Oversized %d" n
  | Conn_io.Eof -> "Eof"
  | Conn_io.Torn n -> Printf.sprintf "Torn %d" n
  | Conn_io.Idle_timeout -> "Idle_timeout"
  | Conn_io.Frame_timeout n -> Printf.sprintf "Frame_timeout %d" n
  | Conn_io.Stopped -> "Stopped"
  | Conn_io.Read_error e -> "Read_error " ^ e

let check_event what expected ev =
  Alcotest.(check string) what (event_name expected) (event_name ev)

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s) : int)

(* [stop] that holds on its [n]th call only: the reader polls it before
   each wait, so [stop_at 2] lets exactly one read through and ends the
   next wait with [Stopped], partial frame kept; later calls on the same
   reader wait as usual. *)
let stop_at n =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls = n

(* Lines of every length near the scan's eight-byte step, at every
   offset in the read buffer, of bytes next to the newline's (0x09,
   0x0b, 0x8a, 0x00, 0xff) and plain ones, all in one read: each comes
   back whole, in order. *)
let newline_scan_prop =
  QCheck.Test.make ~count:200 ~name:"newline scan finds every line"
    QCheck.(
      make
        ~print:(fun ls -> String.concat "|" (List.map String.escaped ls))
        Gen.(
          list_size (int_range 1 12)
            (string_size (int_range 0 24)
               ~gen:(oneofl [ 'a'; '\t'; '\011'; '\138'; '\000'; '\255'; '{' ]))))
    (fun lines ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      send a (String.concat "" (List.map (fun l -> l ^ "\n") lines));
      Unix.close a;
      let r = Conn_io.reader ~now:Unix.gettimeofday ~limit:64 b in
      let got =
        List.map
          (fun _ ->
            match Conn_io.read_line r with Conn_io.Line l -> Some l | _ -> None)
          lines
      in
      let eof = Conn_io.read_line r = Conn_io.Eof in
      Unix.close b;
      eof && got = List.map Option.some lines)

let test_conn_io_block_reads () =
  let now = Unix.gettimeofday in
  (* several frames in one read, an empty line among them *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a "one\n\ntwo\nthree\n";
  Unix.close a;
  let r = Conn_io.reader ~now ~limit:64 b in
  List.iter
    (fun expected ->
      check_event "frames from one read" expected (Conn_io.read_line r))
    Conn_io.[ Line "one"; Line ""; Line "two"; Line "three"; Eof ];
  Unix.close b;
  (* a frame split at every byte boundary across two reads *)
  let frame = {|{"id":"x","op":"ping"}|} ^ "\n" in
  for k = 1 to String.length frame - 1 do
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let r = Conn_io.reader ~stop:(stop_at 2) ~now ~limit:64 b in
    send a (String.sub frame 0 k);
    check_event
      (Printf.sprintf "split at %d: first read ends" k)
      Conn_io.Stopped (Conn_io.read_line r);
    send a (String.sub frame k (String.length frame - k) ^ "next\n");
    check_event
      (Printf.sprintf "split at %d: frame whole" k)
      (Conn_io.Line (String.sub frame 0 (String.length frame - 1)))
      (Conn_io.read_line r);
    check_event
      (Printf.sprintf "split at %d: next frame" k)
      (Conn_io.Line "next") (Conn_io.read_line r);
    Unix.close a;
    Unix.close b
  done;
  (* the cap: exactly [limit] bytes is a line, one more is oversized —
     whole in one read, and split across reads at the cap *)
  let limit = 16 in
  let at = String.make limit 'a' and over = String.make (limit + 1) 'b' in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a (at ^ "\n" ^ over ^ "\nok\n");
  let r = Conn_io.reader ~now ~limit b in
  check_event "limit bytes" (Conn_io.Line at) (Conn_io.read_line r);
  check_event "limit + 1 bytes" (Conn_io.Oversized (limit + 1))
    (Conn_io.read_line r);
  check_event "after the oversized line" (Conn_io.Line "ok")
    (Conn_io.read_line r);
  List.iter
    (fun (line, expected) ->
      let r = Conn_io.reader ~stop:(stop_at 2) ~now ~limit b in
      send a (String.sub line 0 limit);
      check_event "first part" Conn_io.Stopped (Conn_io.read_line r);
      send a (String.sub line limit (String.length line - limit) ^ "\n");
      check_event "split at the cap" expected (Conn_io.read_line r))
    [ (at, Conn_io.Line at); (over, Conn_io.Oversized (limit + 1)) ];
  (* a line longer than the read buffer, retained whole *)
  let long = String.init 20_000 (fun i -> Char.chr (97 + (i mod 26))) in
  send a (long ^ "\n");
  check_event "longer than one read" (Conn_io.Line long)
    (Conn_io.read_line (Conn_io.reader ~now ~limit:(1 lsl 20) b));
  Unix.close a;
  Unix.close b;
  (* a torn tail after a whole frame in the same read *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a "whole\nhalf";
  Unix.close a;
  let r = Conn_io.reader ~now ~limit:64 b in
  check_event "whole frame" (Conn_io.Line "whole") (Conn_io.read_line r);
  check_event "torn tail" (Conn_io.Torn 4) (Conn_io.read_line r);
  Unix.close b;
  (* the frame deadline still trips on a tail that started in the same
     read as a whole frame *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a "whole\nst";
  let r =
    Conn_io.reader ~idle_timeout_s:5.0 ~frame_timeout_s:0.05 ~now ~limit:64 b
  in
  check_event "whole frame first" (Conn_io.Line "whole") (Conn_io.read_line r);
  let t0 = now () in
  check_event "started tail misses its deadline" (Conn_io.Frame_timeout 2)
    (Conn_io.read_line r);
  Alcotest.(check bool) "on the frame cap, not the idle cap" true
    (now () -. t0 < 2.0);
  Unix.close a;
  Unix.close b

(* [lookup] sees each frame that arrived whole, in place: a known one
   is consumed as [Replay], anything else (unknown, split across reads,
   over the cap) comes back as before. *)
let test_conn_io_lookup () =
  let now = Unix.gettimeofday in
  let lookup b ~pos ~len =
    if Bytes.sub_string b pos len = "two" then Some "2" else None
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a "one\ntwo\n\ntwo\n";
  (* the first wait reads the four whole frames; the third ends the
     "first byte" read below *)
  let r = Conn_io.reader ~stop:(stop_at 3) ~lookup ~now ~limit:64 b in
  List.iter
    (fun expected ->
      check_event "whole frames" expected (Conn_io.read_line r))
    Conn_io.
      [
        Line "one";
        Replay { reply = "2"; length = 3 };
        Line "";
        Replay { reply = "2"; length = 3 };
      ];
  send a "t";
  check_event "first byte" Conn_io.Stopped (Conn_io.read_line r);
  send a "wo\ntwo\n";
  check_event "split across reads" (Conn_io.Line "two") (Conn_io.read_line r);
  check_event "whole again" (Conn_io.Replay { reply = "2"; length = 3 })
    (Conn_io.read_line r);
  send a "two\n";
  (* every byte so far is consumed, so a reader with a smaller cap can
     take over the descriptor *)
  check_event "over the cap" (Conn_io.Oversized 3)
    (Conn_io.read_line (Conn_io.reader ~lookup ~now ~limit:2 b));
  Unix.close a;
  Unix.close b

(* The crash-sweep serve-net drive in miniature: stage frames in the
   socket buffer (one write, so many small frames still fit), serve the
   connection on this thread and read the replies on another while it
   runs, so no number of replies can fill the socket and wedge the
   server's writes. *)
let drive_connection ?net server frames =
  let sup =
    match net with
    | Some net -> Supervisor.create ~net server
    | None -> Supervisor.create server
  in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      send client (String.concat "" (List.map (fun f -> f ^ "\n") frames));
      Unix.shutdown client Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let reader =
        Thread.create
          (fun () ->
            let bytes = Bytes.create 4096 in
            let rec copy () =
              match Unix.read client bytes 0 4096 with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf bytes 0 n;
                  copy ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> copy ()
            in
            copy ())
          ()
      in
      let report = Supervisor.handle_connection sup srv in
      Thread.join reader;
      (report, String.split_on_char '\n' (String.trim (Buffer.contents buf))))

let test_supervised_connection_basic () =
  let s = create_ok Server.default_config in
  let report, replies =
    drive_connection s
      [
        {|{"id":"a","op":"validate"}|};
        {|{"op":"ping","id":"p"}|};
        "not json at all";
      ]
  in
  Alcotest.(check int) "three frames read" 3 report.Supervisor.frames;
  Alcotest.(check int) "three replies written" 3 report.Supervisor.replies;
  Alcotest.(check bool) "clean close" true
    (report.Supervisor.outcome = Supervisor.Closed);
  Alcotest.(check int) "three reply lines on the wire" 3 (List.length replies);
  Alcotest.(check (option string)) "garbage got a typed reply"
    (Some "bad-frame")
    (get_str [ "error"; "kind" ] (parse_ok (List.nth replies 2)))

(* More replies than the socket buffer holds: with the replies read only
   after the connection was served, the server's writes would block on
   the full socket forever. *)
let test_supervised_many_replies () =
  let s = create_ok Server.default_config in
  let n = 400 in
  let report, replies =
    drive_connection s
      (List.init n (fun i -> Printf.sprintf {|{"op":"ping","id":"p%d"}|} i))
  in
  Alcotest.(check int) "every frame read" n report.Supervisor.frames;
  Alcotest.(check int) "every reply on the wire" n (List.length replies);
  List.iteri
    (fun i reply ->
      Alcotest.(check (option string))
        (Printf.sprintf "reply %d in order" i)
        (Some (Printf.sprintf "p%d" i))
        (get_str [ "id" ] (parse_ok reply)))
    replies

let test_supervised_strikes_close () =
  let s = create_ok Server.default_config in
  let net =
    { Supervisor.default_net_config with Supervisor.max_strikes = 3 }
  in
  let report, replies =
    drive_connection ~net s (List.init 10 (fun _ -> "garbage"))
  in
  (match report.Supervisor.outcome with
  | Supervisor.Struck_out 3 -> ()
  | o -> Alcotest.failf "expected Struck_out 3, got %s" (Supervisor.outcome_name o));
  (* 3 typed rejections + the strike notice; frames 4..10 never read *)
  Alcotest.(check int) "replies stop at the strike close" 4
    (List.length replies);
  (* a batch whose every item fails is answered, not rejected, and
     resets the count; so does a control frame *)
  let all_fail = {|{"id":"f","batch":[{"op":"wat"},{"op":"simulate","kernel":99}]}|} in
  let report, replies =
    drive_connection ~net s
      ([ "g"; "g"; all_fail; "g"; "g"; {|{"op":"ping"}|}; "g"; "g"; "g" ]
      @ List.init 5 (fun _ -> "g"))
  in
  (match report.Supervisor.outcome with
  | Supervisor.Struck_out 3 -> ()
  | o -> Alcotest.failf "expected Struck_out 3, got %s" (Supervisor.outcome_name o));
  Alcotest.(check int) "struck out only after the third rejection in a row"
    10 (List.length replies)

(* ---- the replay index ---- *)

(* Serve [frames] on one connection of a fresh supervisor; a writer and
   a reader thread keep either socket buffer from wedging the exchange.
   The reply lines, in order. *)
let serve_on_connection server frames =
  let sup = Supervisor.create server in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        List.iter (fun f -> send client (f ^ "\n")) frames;
        Unix.shutdown client Unix.SHUTDOWN_SEND)
      ()
  in
  let out = Buffer.create 4096 in
  let reader =
    Thread.create
      (fun () ->
        let bytes = Bytes.create 4096 in
        let rec copy () =
          match Unix.read client bytes 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes out bytes 0 n;
              copy ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> copy ()
        in
        copy ())
      ()
  in
  ignore (Supervisor.handle_connection sup srv : Supervisor.report);
  Thread.join writer;
  Thread.join reader;
  Unix.close client;
  match List.rev (String.split_on_char '\n' (Buffer.contents out)) with
  | "" :: rest -> List.rev rest
  | lines -> List.rev lines

let add_stats (a : Server.stats) (b : Server.stats) =
  Server.
    {
      frames = a.frames + b.frames;
      control = a.control + b.control;
      rejected = a.rejected + b.rejected;
      replayed_frames = a.replayed_frames + b.replayed_frames;
      coalesced = a.coalesced + b.coalesced;
      items = a.items + b.items;
      replayed_items = a.replayed_items + b.replayed_items;
      decoded_items = a.decoded_items + b.decoded_items;
      degraded = a.degraded + b.degraded;
    }

let no_stats =
  Server.
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
    }

let show_stats (s : Server.stats) =
  Printf.sprintf
    "frames %d control %d rejected %d replayed_frames %d coalesced %d items \
     %d replayed_items %d decoded_items %d degraded %d"
    s.frames s.control s.rejected s.replayed_frames s.coalesced s.items
    s.replayed_items s.decoded_items s.degraded

let index_frame_bytes = 4096

(* Work frames, each sent three times, with rejected, control and
   oversized lines and a whitespace variant of a work frame (different
   bytes: a different frame) mixed in and retried, in random order.
   [stats] frames become pings: their reply reads the counters of the
   server that answers, which differ by design between one server and
   a server per frame. *)
let index_case_gen =
  let open QCheck.Gen in
  let frame =
    map
      (fun f ->
        if astr_contains f {|"op":"stats"|} then {|{"op":"ping"}|} else f)
      Serve_fuzz.frame_gen
  in
  let* pool = list_size (int_range 1 3) frame in
  let first = List.hd pool in
  let variant = "{ " ^ String.sub first 1 (String.length first - 1) in
  let oversized =
    Printf.sprintf {|{"id":"big","op":"ping","pad":"%s"}|}
      (String.make index_frame_bytes 'x')
  in
  let* extras =
    list_size (int_range 1 4)
      (oneofl
         [
           {|{"op":"ping"}|};
           {|{"id":"c","op":"ping"}|};
           "not json";
           "";
           {|{"id":"r","batch":"x"}|};
           oversized;
         ])
  in
  shuffle_l
    (List.concat_map (fun f -> [ f; f; f ]) pool
    @ List.concat_map (fun f -> [ f; f ]) (variant :: extras))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The cache's counters in a [stats] reply, as hits, misses, stores;
   zero without a cache. *)
let cache_counters s =
  let n k =
    Option.value ~default:0
      (Option.bind (get [ "cache"; k ] (Server.stats_json s)) Json.int)
  in
  (n "hits", n "misses", n "stores")

let add3 (a, b, c) (x, y, z) = (a + x, b + y, c + z)

(* A computed frame asks the cache once: the analyze golden's 36 batch
   frames, on a fresh session and cache, count 36 misses and 36 stores.
   Served again on the same storage, the session answers every frame
   and the cache is not asked at all. *)
let test_one_cache_lookup_per_computed_frame () =
  let frames =
    String.split_on_char '\n' (read_file "cli/serve_analyze.frames")
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "batch frames" 36 (List.length frames);
  let dir = tmp_dir "misses" in
  let config =
    {
      Server.default_config with
      Server.session = Some (Filename.concat dir "s.journal");
      cache_dir = Some (Filename.concat dir "cache");
    }
  in
  let serve () =
    let s = create_ok config in
    List.iter (fun f -> ignore (Server.handle_line s f : string)) frames;
    Server.finish s;
    cache_counters s
  in
  Alcotest.(check (triple int int int)) "fresh: hits, misses, stores"
    (0, 36, 36) (serve ());
  Alcotest.(check (triple int int int)) "session replays: cache untouched"
    (0, 0, 0) (serve ())

(* One long-lived server (over a connection, so whole lines meet the
   index in the read buffer) against a server restarted on its storage
   before every frame (so its index is always empty): same replies, same
   counters (the cache's included), same compacted journal.  Each case
   runs with a session, with a cache and no session (nothing is
   indexed: every retry goes to the cache and its hit count), and with
   both. *)
let index_invisible_prop =
  QCheck.Test.make ~count:20 ~name:"replay index is invisible"
    (QCheck.make ~print:(String.concat "\n") index_case_gen)
    (fun frames ->
      let serve_both ~session ~cache =
        let config dir =
          {
            Server.default_config with
            Server.session =
              (if session then Some (Filename.concat dir "s.journal")
               else None);
            cache_dir =
              (if cache then Some (Filename.concat dir "cache") else None);
            max_batch = 2;
            max_frame_bytes = index_frame_bytes;
          }
        in
        let dir_long = tmp_dir "index_long"
        and dir_restarted = tmp_dir "index_restarted" in
        let long = create_ok (config dir_long) in
        let replies_long = serve_on_connection long frames in
        let replies, restarted, restarted_cache =
          List.fold_left
            (fun (replies, acc, acc_cache) f ->
              let s = create_ok (config dir_restarted) in
              let r = Server.handle_line s f in
              ( r :: replies,
                add_stats acc (Server.stats s),
                add3 acc_cache (cache_counters s) ))
            ([], no_stats, (0, 0, 0))
            frames
        in
        Server.finish long;
        Server.finish (create_ok (config dir_restarted));
        let journal dir =
          if session then read_file (Filename.concat dir "s.journal") else ""
        in
        let setup =
          Printf.sprintf "(session %b, cache %b) " session cache
        in
        if replies_long <> List.rev replies then
          QCheck.Test.fail_report (setup ^ "replies differ")
        else if Server.stats long <> restarted then
          QCheck.Test.fail_reportf
            "%scounters differ:\n  one server  %s\n  restarted   %s" setup
            (show_stats (Server.stats long)) (show_stats restarted)
        else if cache_counters long <> restarted_cache then
          QCheck.Test.fail_report (setup ^ "cache counters differ")
        else if journal dir_long <> journal dir_restarted then
          QCheck.Test.fail_report (setup ^ "compacted journals differ")
        else true
      in
      serve_both ~session:true ~cache:false
      && serve_both ~session:false ~cache:true
      && serve_both ~session:true ~cache:true)

(* Hundreds of indexed lines: the table grows, every
   line still finds its own reply, and a line one byte off (same length,
   and one byte longer) finds none. *)
let test_replay_index_grows () =
  let dir = tmp_dir "grow" in
  let s =
    create_ok
      {
        Server.default_config with
        Server.session = Some (Filename.concat dir "s.journal");
      }
  in
  let line i = Printf.sprintf {|{"id":"g%d","batch":[{"op":"wat"}]}|} i in
  let n = 300 in
  let replies = Array.init n (fun i -> Server.handle_line s (line i)) in
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "replayed" r (Server.handle_line s (line i)))
    replies;
  let indexed l =
    Server.replay_of_span s (Bytes.of_string l) ~pos:0 ~len:(String.length l)
  in
  (* the span need not start at 0 *)
  let at_offset l =
    let b = Bytes.of_string ("xyz" ^ l ^ "\n") in
    Server.replay_of_span s b ~pos:3 ~len:(String.length l)
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check (option string)) "indexed" (Some r) (indexed (line i));
      Alcotest.(check (option string)) "indexed at an offset" (Some r)
        (at_offset (line i));
      let l = line i in
      let off = Bytes.of_string l in
      Bytes.set off (String.length l - 3) '!';
      Alcotest.(check (option string)) "one byte off" None
        (indexed (Bytes.to_string off));
      Alcotest.(check (option string)) "one byte longer" None
        (indexed (l ^ " ")))
    replies;
  let st = Server.stats s in
  Alcotest.(check int) "each replayed once" n st.Server.replayed_frames;
  Alcotest.(check int) "each decoded once" n st.Server.decoded_items

(* A replay read from a connection is answered in the read buffer: no
   copy of the line, no digest input.  [Conn_io.read_line] runs on this
   thread over lines staged in a socket, each 2 KB with its newline, so
   every read of the 8 KB buffer holds whole lines only, all offered to
   the server's replay index in place.  A line is no longer than
   [Max_young_wosize] words, so a copy of it would land in the minor
   heap, where [Gc.minor_words] counts it exactly: 257 words a line.
   The read itself measures 13.5 words a line: the 3-word [Replay]
   event, the index lookup's key and option, and a quarter of each
   refill's [select] and [read]; the equality test allocates nothing.
   The bound allows 2.5 words over that, less than one more small block
   per line and far short of any copy. *)
let test_replay_allocates_no_line () =
  let dir = tmp_dir "nocopy" in
  let s =
    create_ok
      {
        Server.default_config with
        Server.session = Some (Filename.concat dir "s.journal");
      }
  in
  let bytes = 2047 in
  let base = frame_items ~id:"" 16 in
  let line = frame_items ~id:(String.make (bytes - String.length base) 'p') 16 in
  let line_words = (bytes / (Sys.word_size / 8)) + 1 in
  Alcotest.(check int) "line length" bytes (String.length line);
  Alcotest.(check bool) "a minor-heap string" true (line_words <= 256);
  let bound = 16.0 in
  let first = Server.handle_line s line in
  (* the first replay takes the full path and enters the index *)
  Alcotest.(check string) "session replay" first (Server.handle_line s line);
  let lines = 32 in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  send a (String.concat "" (List.init lines (fun _ -> line ^ "\n")));
  Unix.close a;
  let r =
    Conn_io.reader ~lookup:(Server.replay_of_span s) ~now:Unix.gettimeofday
      ~limit:(1 lsl 20) b
  in
  let replays = ref 0 and same = ref 0 in
  let rec drain () =
    match Conn_io.read_line r with
    | Conn_io.Replay { reply; length } ->
        incr replays;
        if String.equal reply first && length = bytes then incr same;
        drain ()
    | ev -> ev
  in
  let before = Gc.minor_words () in
  let last = drain () in
  let per_line = (Gc.minor_words () -. before) /. float lines in
  Unix.close b;
  check_event "then end of stream" Conn_io.Eof last;
  Alcotest.(check int) "every line a replay" lines !replays;
  Alcotest.(check int) "each the journaled reply" lines !same;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per line < %.0f" per_line bound)
    true (per_line < bound);
  let st = Server.stats s in
  Alcotest.(check int) "no item decoded on a replay" 16 st.Server.decoded_items

(* Restart is idempotent: a compacted session, opened by a new server
   and finished with nothing served, is the same bytes. *)
let test_restart_idempotent () =
  let dir = tmp_dir "restart" in
  let path = Filename.concat dir "s.journal" in
  (* a frame that died after journaling one of its items *)
  (match Session.open_ path with
  | Error e -> Alcotest.fail e
  | Ok session ->
      Session.record_item session
        ~key:(Session.frame_key ~id:"p" ~payload:"partial")
        ~index:0 {|{"ok":true,"marker":0}|});
  let config = { Server.default_config with Server.session = Some path } in
  let s1 = create_ok config in
  List.iter
    (fun f -> ignore (Server.handle_line s1 f : string))
    [ frame_a; frame_items ~id:"r" 4 ];
  Server.finish s1;
  let compacted = read_file path in
  for restart = 1 to 2 do
    Server.finish (create_ok config);
    Alcotest.(check string)
      (Printf.sprintf "restart %d: same bytes" restart)
      compacted (read_file path)
  done

(* The strike predicate the supervisor used to compute by re-parsing
   every reply, kept as the oracle for [handle_frame]'s flag. *)
let top_level_not_ok reply =
  match Json.parse reply with
  | Ok j -> Json.mem j "ok" = Some (Json.Bool false)
  | Error _ -> false

let strike_frame_gen =
  let open QCheck.Gen in
  let item =
    oneofl
      [
        {|{"op":"validate"}|};
        {|{"op":"simulate","kernel":7,"budget_cycles":1}|};
        {|{"op":"simulate","kernel":99}|};
        {|{"op":"wat"}|};
        {|{"op":"simulate","kernel":3,"machine":"c240;banks=0"}|};
        {|{"op":"hierarchy"}|};
        {|7|};
      ]
  in
  let batch =
    map2
      (fun id items ->
        Printf.sprintf {|{"id":"%s","budget_cycles":200,"batch":[%s]}|} id
          (String.concat "," items))
      (oneofl [ "a"; "b"; "c" ])
      (list_size (int_range 0 5) item)
  in
  oneof
    [
      batch;
      oneofl
        [
          {|{"op":"ping"}|};
          {|{"id":"s","op":"stats"}|};
          {|{"id":"p","op":"ping","batch":[]}|};
          {|{"op":"simulate","kernel":7}|};
          {|{"id":7,"op":"validate"}|};
          {|{"id":"","op":"validate"}|};
          {|{"id":"d","deadline_ms":-1,"op":"validate"}|};
          {|{"id":"d","budget_cycles":"x","op":"validate"}|};
          {|{"id":"d","batch":{}}|};
          {|{"id":"d"}|};
          {|[1,2]|};
          {|"str"|};
          "";
          "}{";
          "garbage";
        ];
      map (fun n -> {|{"id":"big","pad":"|} ^ String.make n 'x' ^ {|"}|})
        (int_range 300 600);
      map (String.make 1) (char_range '\000' '\255');
      string_size ~gen:printable (int_range 0 40);
    ]

let strike_flag_prop =
  let server =
    lazy
      (create_ok
         {
           Server.default_config with
           Server.max_batch = 4;
           max_frame_bytes = 400;
           default_budget_cycles = Some 200.0;
         })
  in
  QCheck.Test.make ~count:300 ~name:"handle_frame flag = top-level ok:false"
    (QCheck.make ~print:(fun s -> s) strike_frame_gen)
    (fun line ->
      let reply, rejected = Server.handle_frame (Lazy.force server) line in
      rejected = top_level_not_ok reply)

let test_supervised_pipeline_order () =
  let s = create_ok Server.default_config in
  let net = { Supervisor.default_net_config with Supervisor.pipeline = 4 } in
  let frames =
    List.init 8 (fun i ->
        Printf.sprintf "{\"id\":\"p%d\",\"op\":\"validate\"}" i)
  in
  let _, replies = drive_connection ~net s frames in
  Alcotest.(check int) "one reply per frame" 8 (List.length replies);
  List.iteri
    (fun i reply ->
      Alcotest.(check (option string))
        (Printf.sprintf "reply %d in arrival order" i)
        (Some (Printf.sprintf "p%d" i))
        (get_str [ "id" ] (parse_ok reply)))
    replies

(* A replay-index hit is answered on the reader thread, but it still
   takes a slot of the pipeline.  With [pipeline 2], a frame held back
   on its worker and 200 retries of an indexed line behind it, the
   reader stops after one held reply (the frame, one queued replay, and
   the one waiting for a slot: 3 read) until the frame is answered. *)
let test_pipeline_bounds_owed_replies () =
  let dir = tmp_dir "window" in
  let s =
    create_ok
      {
        Server.default_config with
        Server.session = Some (Filename.concat dir "s.journal");
      }
  in
  let retry = {|{"id":"r","batch":[{"op":"wat"}]}|} in
  let r_retry = Server.handle_line s retry in
  ignore (Server.handle_line s retry : string);
  Alcotest.(check (option string)) "the retry is indexed" (Some r_retry)
    (Server.replay_of_span s (Bytes.of_string retry) ~pos:0
       ~len:(String.length retry));
  let slow = {|{"id":"slow","op":"ping"}|} in
  let m = Mutex.create () and c = Condition.create () in
  let entered = ref false and released = ref false in
  let handle line =
    if line <> slow then Server.handle_frame s line
    else begin
      Mutex.lock m;
      entered := true;
      Condition.broadcast c;
      while not !released do
        Condition.wait c m
      done;
      Mutex.unlock m;
      ("held", false)
    end
  in
  let sup =
    Supervisor.create
      ~net:{ Supervisor.default_net_config with Supervisor.pipeline = 2 }
      s
  in
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = 200 in
  send client
    (String.concat "\n" (slow :: List.init n (fun _ -> retry)) ^ "\n");
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  let th =
    Thread.create
      (fun () ->
        ignore
          (Supervisor.handle_connection sup ~handle srv : Supervisor.report))
      ()
  in
  Mutex.lock m;
  while not !entered do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (* unbounded, the reader would take every retry in this time *)
  Thread.delay 0.2;
  let read_while_held = (Supervisor.counters_snapshot sup).Supervisor.frames_read in
  Mutex.lock m;
  released := true;
  Condition.broadcast c;
  Mutex.unlock m;
  (* many small replies can fill a socket buffer: read as they come *)
  let buf = Buffer.create 4096 and bytes = Bytes.create 4096 in
  let rec copy () =
    match Unix.read client bytes 0 4096 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf bytes 0 k;
        copy ()
  in
  copy ();
  Thread.join th;
  Unix.close client;
  Alcotest.(check int) "frames read while the first is held" 3 read_while_held;
  Alcotest.(check (list string)) "every reply, in order"
    ("held" :: List.init n (fun _ -> r_retry))
    (String.split_on_char '\n' (String.trim (Buffer.contents buf)));
  Alcotest.(check int) "every retry counted as a replay" (n + 1)
    (Server.stats s).Server.replayed_frames

let test_supervised_concurrent_dup_single_flight () =
  (* the same frame key on two live connections at once: one journal
     store, byte-identical replies *)
  let dir = tmp_dir "dup" in
  let session = Filename.concat dir "s.journal" in
  let s =
    create_ok { Server.default_config with Server.session = Some session }
  in
  let sup = Supervisor.create s in
  let frame = {|{"id":"dup","op":"simulate","kernel":7}|} in
  let serve_one () =
    let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let line = frame ^ "\n" in
    ignore (Unix.write_substring client line 0 (String.length line) : int);
    Unix.shutdown client Unix.SHUTDOWN_SEND;
    let th =
      Thread.create (fun () -> ignore (Supervisor.handle_connection sup srv)) ()
    in
    (client, th)
  in
  let c1, t1 = serve_one () in
  let c2, t2 = serve_one () in
  Thread.join t1;
  Thread.join t2;
  let read_all fd =
    let buf = Buffer.create 256 in
    let bytes = Bytes.create 4096 in
    let rec go () =
      match Unix.read fd bytes 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf bytes 0 n;
          go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ();
    String.trim (Buffer.contents buf)
  in
  let r1 = read_all c1 and r2 = read_all c2 in
  Unix.close c1;
  Unix.close c2;
  Alcotest.(check string) "byte-identical replies" r1 r2;
  Alcotest.(check bool) "replies nonempty" true (String.length r1 > 0);
  let stats = Server.stats s in
  Alcotest.(check int) "exactly one computation" 1 stats.Server.items;
  Alcotest.(check int) "the twin replayed" 1 stats.Server.replayed_frames;
  (* exactly one frame record journaled *)
  let ic = open_in_bin session in
  let lines = ref 0 in
  (try
     while true do
       let l = input_line ic in
       (* journal lines are tab-separated: tag, then k=v fields *)
       match String.split_on_char '\t' l with
       | "frame" :: _ -> incr lines
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "one journal store" 1 !lines

let test_drain_degrades_in_flight () =
  (* an armed drain deadline degrades batches exactly like budget
     expiry: estimate tier, typed diagnostic, ok reply *)
  let s = create_ok Server.default_config in
  Server.drain s ~within_ms:0.0;
  let j = reply_json s {|{"id":"d","op":"simulate","kernel":7}|} in
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.mem j "ok") Json.bool);
  Alcotest.(check (option string)) "estimate tier" (Some "estimate")
    (get_str [ "tier" ] (first_result j))

let test_accept_failure_policy () =
  Alcotest.(check bool) "EINTR retries" true
    (Supervisor.classify_accept_error Unix.EINTR = Supervisor.Retry);
  Alcotest.(check bool) "ECONNABORTED retries" true
    (Supervisor.classify_accept_error Unix.ECONNABORTED = Supervisor.Retry);
  Alcotest.(check bool) "EMFILE backs off" true
    (Supervisor.classify_accept_error Unix.EMFILE = Supervisor.Backoff);
  Alcotest.(check bool) "EBADF is fatal" true
    (Supervisor.classify_accept_error Unix.EBADF = Supervisor.Fatal);
  Alcotest.(check bool) "backoff grows" true
    (Supervisor.backoff_s ~consecutive:3 > Supervisor.backoff_s ~consecutive:1);
  Alcotest.(check bool) "backoff capped at 1s" true
    (Supervisor.backoff_s ~consecutive:50 <= 1.0)

let test_fuzz_rung () =
  let config =
    { Server.default_config with Server.default_budget_cycles = Some 20_000.0 }
  in
  match Serve_fuzz.run ~seed:7 ~count:20 ~config () with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "fuzz violation on case %d: %s (input %s)"
        v.Serve_fuzz.case v.Serve_fuzz.problem v.Serve_fuzz.input

let test_conn_fuzz_rung () =
  let config =
    { Server.default_config with Server.default_budget_cycles = Some 20_000.0 }
  in
  match Serve_fuzz.run_conn ~seed:11 ~count:12 ~config () with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "connection fuzz violation on case %d: %s (input %s)"
        v.Serve_fuzz.case v.Serve_fuzz.problem
        (if String.length v.Serve_fuzz.input > 200 then
           String.sub v.Serve_fuzz.input 0 200 ^ "..."
         else v.Serve_fuzz.input)

let () =
  ignore json;
  Alcotest.run "convex_serve"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode" `Quick test_json_unicode;
          Alcotest.test_case "hostile inputs" `Quick test_json_hostile;
          Alcotest.test_case "depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "float rendering" `Quick
            test_json_float_rendering;
          Alcotest.test_case "numbers match Printf" `Quick
            test_json_num_matches_printf;
          QCheck_alcotest.to_alcotest num_printf_prop;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
          Alcotest.test_case "scan cases" `Quick test_scan_cases;
          QCheck_alcotest.to_alcotest scan_agrees_prop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "batch decode" `Quick test_decode_batch;
          Alcotest.test_case "inline sugar" `Quick test_decode_inline_sugar;
          Alcotest.test_case "envelope errors" `Quick
            test_decode_envelope_errors;
          Alcotest.test_case "item errors" `Quick test_decode_item_errors;
          Alcotest.test_case "envelope leaves items raw" `Quick
            test_decode_envelope_leaves_items_raw;
          Alcotest.test_case "frame key" `Quick test_frame_key;
        ] );
      ( "server",
        [
          Alcotest.test_case "simulate" `Quick test_server_simulate;
          Alcotest.test_case "budget degrades" `Quick
            test_server_budget_degrades;
          Alcotest.test_case "typed errors" `Quick test_server_typed_errors;
          Alcotest.test_case "control frames" `Quick test_server_control;
          Alcotest.test_case "idempotent retry" `Quick
            test_server_idempotent_retry;
          Alcotest.test_case "session resume" `Quick
            test_server_session_resume;
          Alcotest.test_case "torn tail repair" `Quick
            test_server_session_torn_tail;
          Alcotest.test_case "foreign journal refused" `Quick
            test_server_refuses_foreign_journal;
          Alcotest.test_case "serve loop oversize" `Quick
            test_serve_loop_oversize;
          Alcotest.test_case "replayed items count own indexes" `Quick
            test_replayed_items_count_own_indexes;
          Alcotest.test_case "unreadable journaled item" `Quick
            test_unreadable_journaled_item;
          QCheck_alcotest.to_alcotest reply_encoding_prop;
          Alcotest.test_case "replay builds no item tree" `Quick
            test_replay_builds_no_item_tree;
          Alcotest.test_case "session hit keeps frame checks" `Quick
            test_session_hit_keeps_frame_checks;
          QCheck_alcotest.to_alcotest index_invisible_prop;
          Alcotest.test_case "one cache lookup per computed frame" `Quick
            test_one_cache_lookup_per_computed_frame;
          Alcotest.test_case "replay allocates no line" `Quick
            test_replay_allocates_no_line;
          Alcotest.test_case "restart idempotent" `Quick
            test_restart_idempotent;
          Alcotest.test_case "replay index grows" `Quick
            test_replay_index_grows;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "limiter frame rate" `Quick
            test_limiter_frame_rate;
          Alcotest.test_case "limiter rejects consume nothing" `Quick
            test_limiter_byte_rate_consumes_nothing_on_reject;
          Alcotest.test_case "sequencer reorders" `Quick
            test_sequencer_reorders;
          Alcotest.test_case "sequencer latches failure" `Quick
            test_sequencer_latches_first_failure;
          Alcotest.test_case "conn_io events" `Quick test_conn_io_events;
          Alcotest.test_case "conn_io block reads" `Quick
            test_conn_io_block_reads;
          QCheck_alcotest.to_alcotest newline_scan_prop;
          Alcotest.test_case "conn_io lookup" `Quick test_conn_io_lookup;
          Alcotest.test_case "supervised connection" `Quick
            test_supervised_connection_basic;
          Alcotest.test_case "many replies" `Quick
            test_supervised_many_replies;
          Alcotest.test_case "strikes close" `Quick
            test_supervised_strikes_close;
          QCheck_alcotest.to_alcotest strike_flag_prop;
          Alcotest.test_case "pipeline keeps order" `Quick
            test_supervised_pipeline_order;
          Alcotest.test_case "pipeline bounds owed replies" `Quick
            test_pipeline_bounds_owed_replies;
          Alcotest.test_case "concurrent dup single-flight" `Quick
            test_supervised_concurrent_dup_single_flight;
          Alcotest.test_case "drain degrades in-flight" `Quick
            test_drain_degrades_in_flight;
          Alcotest.test_case "drain wakes idle stdio reader" `Quick
            test_stdio_drain_wakes_idle_reader;
          Alcotest.test_case "accept failure policy" `Quick
            test_accept_failure_policy;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "protocol rung" `Quick test_fuzz_rung;
          Alcotest.test_case "connection rung" `Quick test_conn_fuzz_rung;
        ] );
    ]
