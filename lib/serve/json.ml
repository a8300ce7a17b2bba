type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)

(* Same shortest-round-trip discipline as Fault.to_spec: %.12g when it
   survives a round trip, %.17g otherwise.  Integral values within the
   doubles-are-exact range print without a point so ids and counts stay
   readable. *)
let add_num buf f =
  if not (Float.is_finite f) then
    (* non-finite: JSON has no spelling for these; [null] keeps the
       reply parseable rather than emitting a bare "nan" token *)
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f <= 9.007199254740992e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

let add_str buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> add_str buf s
    | Arr vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_str buf k;
            Buffer.add_char buf ':';
            go v)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)

exception Bad of string

let parse ?(max_depth = 64) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else if cp < 0x10000 then (
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else (
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
  in
  (* The escape-aware rest of a string, appended to [buf] up to and past
     its closing quote. *)
  let escaped_string buf =
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          Buffer.contents buf
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  let cp = hex4 () in
                  if cp >= 0xd800 && cp <= 0xdbff then (
                    (* high surrogate: a low surrogate must follow *)
                    if
                      !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then (
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo >= 0xdc00 && lo <= 0xdfff then
                        add_utf8 buf
                          (0x10000
                          + ((cp - 0xd800) lsl 10)
                          + (lo - 0xdc00))
                      else fail "unpaired surrogate")
                    else fail "unpaired surrogate")
                  else if cp >= 0xdc00 && cp <= 0xdfff then
                    fail "unpaired surrogate"
                  else add_utf8 buf cp
              | _ -> fail "bad escape character");
              go ())
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  (* Most strings (keys, ids, specs) hold no escape: scan to the closing
     quote and take the span with one [String.sub].  At the first [\] or
     control byte, [escaped_string] takes over with the plain prefix
     already in its buffer, so every strict rejection still fires
     there. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec plain i =
      if i >= n then i
      else
        match String.unsafe_get s i with
        | '"' | '\\' -> i
        | c when Char.code c < 0x20 -> i
        | _ -> plain (i + 1)
    in
    let stop = plain start in
    if stop < n && s.[stop] = '"' then (
      pos := stop + 1;
      String.sub s start (stop - start))
    else (
      pos := stop;
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf s start (stop - start);
      escaped_string buf)
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    (* strict JSON integer part: a leading zero stands alone *)
    (match peek () with
    | Some '0' -> (
        advance ();
        match peek () with
        | Some '0' .. '9' -> fail "leading zero"
        | _ -> ())
    | _ -> digits ());
    if peek () = Some '.' then (
      advance ();
      digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    let span = String.sub s start (!pos - start) in
    match float_of_string_opt span with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" span)
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          Arr [])
        else
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let mem v k = match v with Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int = function
  | Num f
    when Float.is_integer f
         && f >= Int.to_float Int.min_int
         && f <= Int.to_float Int.max_int ->
      Some (Float.to_int f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let arr = function Arr vs -> Some vs | _ -> None
