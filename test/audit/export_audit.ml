(* The interface audit: every [val] a library interface exports, and every
   optional argument it declares, must have a caller outside its module.

   The scan is textual and deliberately crude, the same word-boundary
   match as [grep -w]: a value counts as referenced when its name appears
   as a whole word in some other source file.  An optional argument
   [?arg] of [f] counts as set when some other implementation file
   applies [f] with [~arg] or [?arg] among the labels of that same
   application (another interface declaring [?arg] is not a caller, and
   neither is a [~arg] passed to some other function).  It
   over-approximates use (a shared name in an unrelated module is taken
   for a caller), so what it reports is certainly unreferenced by name.

   Sources are [(path, contents)] pairs with '/'-separated paths relative
   to the project root; interfaces are the [lib/**/*.mli] among them. *)

type source = { path : string; text : string }

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* A source's whole words (maximal runs of word characters): a
   membership test is then exactly [grep -w]. *)
let words text =
  let all = Hashtbl.create 1024 in
  let n = String.length text in
  let rec go i =
    if i < n then
      if not (is_word_char text.[i]) then go (i + 1)
      else begin
        let j = ref i in
        while !j < n && is_word_char text.[!j] do incr j done;
        Hashtbl.replace all (String.sub text i (!j - i)) ();
        go !j
      end
  in
  go 0;
  all

let take_ident s i =
  let j = ref i in
  while !j < String.length s && is_word_char s.[!j] do incr j done;
  String.sub s i (!j - i)

(* Words that end an application's argument list, or that begin a
   definition of the name before them rather than a use of it. *)
let ends_application =
  [ "in"; "let"; "and"; "then"; "else"; "with"; "do"; "done"; "match"; "if";
    "fun"; "function"; "begin"; "end"; "of"; "when"; "to"; "downto"; "try";
    "val"; "type"; "module"; "open"; "include"; "external"; "exception" ]

let defines = [ "let"; "rec"; "and"; "val"; "external"; "method" ]

(* The word that ends just before [i], skipping blanks. *)
let word_before text i =
  let j = ref (i - 1) in
  while !j >= 0 && (text.[!j] = ' ' || text.[!j] = '\n') do decr j done;
  let stop = !j + 1 in
  while !j >= 0 && is_word_char text.[!j] do decr j done;
  String.sub text (!j + 1) (stop - !j - 1)

(* The labels ([~l] or [?l]) of the application starting at [i], just
   after the applied name: everything up to a closing bracket it did not
   open, or, outside brackets, up to a [;], [,], [:], an infix operator
   or a keyword.  Labels inside brackets belong to inner applications.
   Strings, character literals and comments are skipped. *)
let labels_after text i =
  let n = String.length text in
  let rec go i depth acc =
    if i >= n then acc
    else
      match text.[i] with
      | ' ' | '\n' | '\t' | '\r' | '.' | '\'' | '!' | '#' ->
          go (i + 1) depth acc
      | '(' when i + 1 < n && text.[i + 1] = '*' ->
          go (comment (i + 2) 1) depth acc
      | '(' | '[' | '{' -> go (i + 1) (depth + 1) acc
      | ')' | ']' | '}' -> if depth = 0 then acc else go (i + 1) (depth - 1) acc
      | '"' -> go (string_end (i + 1)) depth acc
      | ('~' | '?') when i + 1 < n && is_word_char text.[i + 1] ->
          let l = take_ident text (i + 1) in
          let j = i + 1 + String.length l in
          (* the [:] of [~l:v] is part of the label *)
          let j = if j < n && text.[j] = ':' then j + 1 else j in
          go j depth (if depth = 0 then l :: acc else acc)
      | c when is_word_char c ->
          let w = take_ident text i in
          if depth = 0 && List.mem w ends_application then acc
          else go (i + String.length w) depth acc
      | _ -> if depth = 0 then acc else go (i + 1) depth acc
  and comment i nest =
    if i + 1 >= n then n
    else if text.[i] = '*' && text.[i + 1] = ')' then
      if nest = 1 then i + 2 else comment (i + 2) (nest - 1)
    else if text.[i] = '(' && text.[i + 1] = '*' then comment (i + 2) (nest + 1)
    else comment (i + 1) nest
  and string_end i =
    if i >= n then n
    else if text.[i] = '\\' then string_end (i + 2)
    else if text.[i] = '"' then i + 1
    else string_end (i + 1)
  in
  go i 0 []

(* Whether some application of [name] in [text] carries label [arg]: a
   whole-word [name] not being defined there, followed by [~arg] or
   [?arg] among its own arguments. *)
let applies_with text ~name ~arg =
  let n = String.length text and k = String.length name in
  let rec from i =
    match String.index_from_opt text i name.[0] with
    | None -> false
    | Some j ->
        let whole =
          j + k <= n
          && String.sub text j k = name
          && (j = 0 || not (is_word_char text.[j - 1]))
          && (j + k = n || not (is_word_char text.[j + k]))
        in
        if
          whole
          && (j > 0 && text.[j - 1] = '.'
             || not (List.mem (word_before text j) defines))
          && List.mem arg (labels_after text (j + k))
        then true
        else from (j + 1)
  in
  k > 0 && from 0

(* The [?arg] of a line that a [:] follows, spaces allowed between. *)
let optional_args line =
  let n = String.length line in
  let rec colon k =
    k < n && (line.[k] = ':' || (line.[k] = ' ' && colon (k + 1)))
  in
  let rec go i acc =
    match String.index_from_opt line i '?' with
    | None -> acc
    | Some q ->
        let a = take_ident line (q + 1) in
        let set = a <> "" && colon (q + 1 + String.length a) in
        go (q + 1) (if set then a :: acc else acc)
  in
  go 0 []

(* The [val] declarations of an interface, each with the optional
   arguments its type declares.  A declaration runs from its [val] line
   to the next structure item. *)
let declarations text =
  let ends_decl line =
    List.exists
      (fun prefix -> String.starts_with ~prefix line)
      [ "type "; "module "; "end"; "exception "; "include "; "class " ]
  in
  let step (decls, in_decl) raw =
    let line = String.trim raw in
    if String.starts_with ~prefix:"val " line then
      let rest = String.sub line 4 (String.length line - 4) in
      match take_ident (String.trim rest) 0 with
      | "" -> (decls, false)
      | v -> ((v, optional_args line) :: decls, true)
    else
      match decls with
      | (v, args) :: rest when in_decl && not (ends_decl line) ->
          ((v, optional_args line @ args) :: rest, true)
      | _ -> (decls, false)
  in
  let decls, _ =
    List.fold_left step ([], false) (String.split_on_char '\n' text)
  in
  List.rev_map (fun (v, args) -> (v, List.sort_uniq compare args)) decls

let module_of path = Filename.remove_extension path

let is_interface s =
  String.starts_with ~prefix:"lib/" s.path
  && Filename.check_suffix s.path ".mli"

(* The findings, one line each in the allowlist's key syntax:
   [val MLI NAME] for a [val] no other file names, [unset MLI NAME ?ARG]
   for an optional argument no other file sets, and [test-only MLI NAME
   ?ARG] for one that only files under [test/] set. *)
let scan sources =
  let indexed = List.map (fun s -> (s, words s.text)) sources in
  let findings = ref [] in
  List.iter
    (fun mli ->
      let own = module_of mli.path in
      let others =
        List.filter (fun (s, _) -> module_of s.path <> own) indexed
      in
      List.iter
        (fun (value, args) ->
          let found fmt =
            Printf.ksprintf (fun f -> findings := f :: !findings) fmt
          in
          if not (List.exists (fun (_, w) -> Hashtbl.mem w value) others)
          then found "val %s %s" mli.path value;
          List.iter
            (fun arg ->
              let setters =
                List.filter
                  (fun (s, w) ->
                    Hashtbl.mem w value
                    && (not (Filename.check_suffix s.path ".mli"))
                    && applies_with s.text ~name:value ~arg)
                  others
              in
              if setters = [] then found "unset %s %s ?%s" mli.path value arg
              else if
                List.for_all
                  (fun (s, _) -> String.starts_with ~prefix:"test/" s.path)
                  setters
              then found "test-only %s %s ?%s" mli.path value arg)
            args)
        (declarations mli.text))
    (List.filter is_interface sources);
  List.sort_uniq compare !findings

(* ---- the tree ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every .ml/.mli under [dirs] of [root], skipping hidden and [_build]
   directories and the directories in [skip]. *)
let load_tree ~root ~dirs ~skip =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun name ->
          let rel' = rel ^ "/" ^ name in
          let abs' = Filename.concat root rel' in
          let source = Filename.remove_extension name in
          if name.[0] = '.' || name = "_build" || List.mem rel' skip then ()
          else if Sys.is_directory abs' then walk rel'
          else if
            Filename.extension name = ".ml" || Filename.extension name = ".mli"
          then
            (* dune's preprocessed copies, [x.pp.ml], are not sources *)
            if not (Filename.check_suffix source ".pp") then
              acc := { path = rel'; text = read_file abs' } :: !acc)
        (Sys.readdir abs)
  in
  List.iter walk dirs;
  List.sort compare !acc

(* ---- the allowlist ----

   One entry per line: a finding's key, then " -- ", then a non-empty
   reason.  Blank lines and lines starting with '#' are ignored. *)

let parse_allowlist text =
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        let n = String.length line in
        let rec split j =
          if j + 4 > n then None
          else if String.sub line j 4 = " -- " then
            Some
              ( String.trim (String.sub line 0 j),
                String.trim (String.sub line (j + 4) (n - j - 4)) )
          else split (j + 1)
        in
        match split 0 with
        | Some (k, reason) when reason <> "" ->
            entries := (k, reason) :: !entries
        | _ ->
            errors :=
              Printf.sprintf "line %d: want \"<finding> -- <reason>\"" (i + 1)
              :: !errors)
    (String.split_on_char '\n' text);
  (List.rev !entries, List.rev !errors)

(* ---- the library inventory ---- *)

(* The [(name X)] of a dune stanza file. *)
let library_names dune =
  let blank = function '(' | ')' | '\n' | '\t' -> ' ' | c -> c in
  let rec names = function
    | "name" :: n :: rest -> n :: names rest
    | _ :: rest -> names rest
    | [] -> []
  in
  names
    (List.filter (( <> ) "") (String.split_on_char ' ' (String.map blank dune)))

(* The text of the markdown section whose heading starts with [heading],
   up to the next heading of the same level. *)
let section ~heading doc =
  let lines = String.split_on_char '\n' doc in
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:heading l then take [] rest else skip rest
  and take acc = function
    | l :: rest when not (String.starts_with ~prefix:"## " l) ->
        take (l :: acc) rest
    | _ -> List.rev acc
  in
  String.concat "\n" (skip lines)

let missing_libraries ~inventory names =
  let w = words inventory in
  List.filter (fun n -> not (Hashtbl.mem w n)) names
