(* The interface-audit gate, run by [dune runtest]:

     audit_gate ROOT ALLOWLIST

   recomputes the unreferenced exports and the unset optional arguments
   of [lib/**/*.mli] (see [Export_audit]) and fails unless they are
   exactly the allowlist's entries, each with a reason; it also fails when
   a library of [lib/*/dune] is missing from DESIGN.md's system
   inventory.  A new unreferenced export, or an allowlist entry that no
   longer matches anything, both fail, so the list cannot drift. *)

open Export_audit

let dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

(* the gate's own sources are not callers *)
let skip = [ "test/audit" ]

let () =
  let root, allowlist =
    match Sys.argv with
    | [| _; root; allowlist |] -> (root, allowlist)
    | _ ->
        prerr_endline "usage: audit_gate ROOT ALLOWLIST";
        exit 2
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let findings = scan (load_tree ~root ~dirs ~skip) in
  let entries, errors = parse_allowlist (read_file allowlist) in
  List.iter (problem "%s: %s" allowlist) errors;
  let allowed = List.map fst entries in
  List.iter
    (fun f ->
      if not (List.mem f allowed) then
        problem "%s\n  is not allowlisted: hide or delete the value, make \
                 the option a constant, or allowlist it with a reason" f)
    findings;
  List.iter
    (fun a ->
      if not (List.mem a findings) then
        problem "%s\n  is allowlisted but no longer reported: drop the entry" a)
    allowed;
  let lib = Filename.concat root "lib" in
  let names =
    Sys.readdir lib |> Array.to_list |> List.sort compare
    |> List.concat_map (fun d ->
           let dune = Filename.concat (Filename.concat lib d) "dune" in
           if Sys.file_exists dune then library_names (read_file dune) else [])
  in
  let inventory =
    section ~heading:"## 1. " (read_file (Filename.concat root "DESIGN.md"))
  in
  List.iter
    (problem "library %s (lib/*/dune) is missing from DESIGN.md section 1")
    (missing_libraries ~inventory names);
  if !problems <> [] then begin
    List.iter prerr_endline (List.rev !problems);
    exit 1
  end
