(* The interface audit: every [val] a library interface exports, and every
   optional argument it declares, must have a caller outside its module.

   The scan is textual and deliberately crude, the same word-boundary
   match as [grep -w]: a value counts as referenced when its name appears
   as a whole word in some other source file, and an optional argument
   [?arg] counts as set when some other implementation file spells [~arg]
   or [?arg] (another interface declaring [?arg] is not a caller).  It
   over-approximates use (a shared name in an unrelated module is taken
   for a caller), so what it reports is certainly unreferenced by name.

   Sources are [(path, contents)] pairs with '/'-separated paths relative
   to the project root; interfaces are the [lib/**/*.mli] among them. *)

type source = { path : string; text : string }

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* A source's whole words (maximal runs of word characters), and those of
   them spelled right after a '~' or a '?': a membership test is then
   exactly [grep -w]. *)
type words = {
  all : (string, unit) Hashtbl.t;
  labels : (string, unit) Hashtbl.t;
}

let words text =
  let all = Hashtbl.create 1024 and labels = Hashtbl.create 64 in
  let n = String.length text in
  let rec go i =
    if i < n then
      if not (is_word_char text.[i]) then go (i + 1)
      else begin
        let j = ref i in
        while !j < n && is_word_char text.[!j] do incr j done;
        let w = String.sub text i (!j - i) in
        Hashtbl.replace all w ();
        if i > 0 && (text.[i - 1] = '~' || text.[i - 1] = '?') then
          Hashtbl.replace labels w ();
        go !j
      end
  in
  go 0;
  { all; labels }

let take_ident s i =
  let j = ref i in
  while !j < String.length s && is_word_char s.[!j] do incr j done;
  String.sub s i (!j - i)

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
          if not (List.exists (fun (_, w) -> Hashtbl.mem w.all value) others)
          then found "val %s %s" mli.path value;
          List.iter
            (fun arg ->
              let setters =
                List.filter
                  (fun (s, w) ->
                    Hashtbl.mem w.labels arg
                    && not (Filename.check_suffix s.path ".mli"))
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
  List.filter (fun n -> not (Hashtbl.mem w.all n)) names
