type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)

(* The C formatter [Printf] itself calls for a finite float under
   %.0f, %.12g and %.17g, without interpreting a format each time. *)
external format_float : string -> float -> string = "caml_format_float"

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
    Buffer.add_string buf (format_float "%.0f" f)
  else
    let s = format_float "%.12g" f in
    Buffer.add_string buf
      (if float_of_string s = f then s else format_float "%.17g" f)

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

(* The nesting cap of [parse] and [scan]. *)
let max_depth = 64

(* Parse the bytes [s.[first] .. s.[stop - 1]] as one document.  Error
   offsets count from the start of [s]. *)
let parse_range ~max_depth s first stop =
  let n = stop in
  let pos = ref first in
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

let parse s = parse_range ~max_depth s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Scanner                                                            *)

type member = { key : string; pos : int; len : int; count : int option }
type scan = Rejected | Not_object | Object of member list

exception Reject

external at : string -> int -> char = "%string_unsafe_get"

(* The parser's grammar, walked over byte offsets without building a
   value: each step returns the offset just past what it accepted, and
   every place [parse] fails raises [Reject] instead.  Depth is checked
   where [parse_value] checks it, on entry to every value. *)
let scan s =
  let n = String.length s in
  let rec ws i =
    if i < n then
      match at s i with ' ' | '\t' | '\n' | '\r' -> ws (i + 1) | _ -> i
    else i
  in
  let hex4 i =
    if i + 4 > n then raise Reject;
    let v = ref 0 in
    for j = i to i + 3 do
      let d =
        match at s j with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> raise Reject
      in
      v := (!v * 16) + d
    done;
    !v
  in
  (* [i] is just past the opening quote *)
  let rec string i =
    if i >= n then raise Reject;
    match at s i with
    | '"' -> i + 1
    | '\\' -> escape (i + 1)
    | c when Char.code c < 0x20 -> raise Reject
    | _ -> string (i + 1)
  and escape i =
    if i >= n then raise Reject;
    match at s i with
    | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' -> string (i + 1)
    | 'u' ->
        let cp = hex4 (i + 1) and i = i + 5 in
        if cp >= 0xd800 && cp <= 0xdbff then
          if i + 1 < n && at s i = '\\' && at s (i + 1) = 'u' then
            let lo = hex4 (i + 2) in
            if lo >= 0xdc00 && lo <= 0xdfff then string (i + 6)
            else raise Reject
          else raise Reject
        else if cp >= 0xdc00 && cp <= 0xdfff then raise Reject
        else string i
    | _ -> raise Reject
  in
  let rec digits0 i =
    if i < n then match at s i with '0' .. '9' -> digits0 (i + 1) | _ -> i
    else i
  in
  let digits i =
    let j = digits0 i in
    if j = i then raise Reject;
    j
  in
  (* the grammar alone decides: every span it accepts is one that
     [float_of_string] reads *)
  let number i =
    let i = if at s i = '-' then i + 1 else i in
    (* a leading zero stands alone: a digit after it is rejected by
       whatever reads past the number, as no value is followed by one *)
    let i = if i < n && at s i = '0' then i + 1 else digits i in
    let i = if i < n && at s i = '.' then digits (i + 1) else i in
    if i < n && (at s i = 'e' || at s i = 'E') then
      let i = i + 1 in
      digits (if i < n && (at s i = '+' || at s i = '-') then i + 1 else i)
    else i
  in
  let literal word i =
    let l = String.length word in
    if i + l > n then raise Reject;
    for j = 0 to l - 1 do
      if at s (i + j) <> String.unsafe_get word j then raise Reject
    done;
    i + l
  in
  (* a top-level key: its bytes when it holds no escape, else decoded *)
  let key_text first stop =
    let rec plain j = j >= stop || (at s j <> '\\' && plain (j + 1)) in
    if plain first then String.sub s (first + 1) (stop - first - 2)
    else
      match parse_range ~max_depth s first stop with
      | Ok (Str k) -> k
      | _ -> raise Reject
  in
  (* [count] is the element count of the array that closed last, so
     right after a member's value it is that value's count; [top]
     collects the top-level members, last first *)
  let count = ref 0 and top = ref [] in
  let rec value depth i =
    if depth > max_depth then raise Reject;
    let i = ws i in
    if i >= n then raise Reject;
    match at s i with
    | '{' ->
        let i = ws (i + 1) in
        if i < n && at s i = '}' then i + 1 else members depth i
    | '[' ->
        let i = ws (i + 1) in
        if i < n && at s i = ']' then (
          count := 0;
          i + 1)
        else elements depth i 0
    | '"' -> string (i + 1)
    | 't' -> literal "true" i
    | 'f' -> literal "false" i
    | 'n' -> literal "null" i
    | '-' | '0' .. '9' -> number i
    | _ -> raise Reject
  and members depth i =
    let first = ws i in
    if first >= n || at s first <> '"' then raise Reject;
    let stop = string (first + 1) in
    let i = ws stop in
    if i >= n || at s i <> ':' then raise Reject;
    let pos = ws (i + 1) in
    let i = value (depth + 1) pos in
    if depth = 0 then
      top :=
        {
          key = key_text first stop;
          pos;
          len = i - pos;
          count = (if at s pos = '[' then Some !count else None);
        }
        :: !top;
    let i = ws i in
    if i < n && at s i = ',' then members depth (i + 1)
    else if i < n && at s i = '}' then i + 1
    else raise Reject
  and elements depth i k =
    let i = ws (value (depth + 1) i) in
    if i < n && at s i = ',' then elements depth (i + 1) (k + 1)
    else if i < n && at s i = ']' then (
      count := k + 1;
      i + 1)
    else raise Reject
  in
  match ws (value 0 0) < n with
  | true -> Rejected
  | false -> if at s (ws 0) = '{' then Object (List.rev !top) else Not_object
  | exception Reject -> Rejected

let member_value s m =
  match parse_range ~max_depth:max_int s m.pos (m.pos + m.len) with
  | Ok v -> v
  | Error e -> invalid_arg ("Json.member_value: " ^ e)

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
