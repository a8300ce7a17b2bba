(* The interface audit on a tiny in-memory tree, so the gate cannot pass
   vacuously: a fixture interface exports a value nothing else names and
   an optional argument nothing else sets, and the scan must report both,
   and nothing once a caller appears. *)

open Export_audit

let widget_mli =
  {|val used : int -> int
(** A value [bin/main.ml] calls. *)

val lonely :
  ?knob:int ->
  unit ->
  int
(** Nothing outside the module names [lonely] or sets [?knob]. *)

type t = { f : ?ignored:int -> unit -> int }
|}

let widget_ml = "let used x = x\nlet lonely ?(knob = 1) () = knob\n"
let main_ml body = { path = "bin/main.ml"; text = body }

let tree extra =
  [
    { path = "lib/fx/widget.mli"; text = widget_mli };
    { path = "lib/fx/widget.ml"; text = widget_ml };
  ]
  @ extra

let findings = Alcotest.(list string)

let test_reports_both () =
  Alcotest.check findings "unreferenced value and unset option"
    [ "unset lib/fx/widget.mli lonely ?knob"; "val lib/fx/widget.mli lonely" ]
    (scan (tree [ main_ml "let () = print_int (Widget.used 1)\n" ]))

let test_own_module_is_not_a_caller () =
  Alcotest.check findings "the module's own uses do not count"
    [
      "unset lib/fx/widget.mli lonely ?knob";
      "val lib/fx/widget.mli lonely";
      "val lib/fx/widget.mli used";
    ]
    (scan (tree []))

let test_caller_clears () =
  Alcotest.check findings "a caller that sets the option clears both" []
    (scan
       (tree
          [
            main_ml
              "let () = print_int (Widget.used (Widget.lonely ~knob:2 ()))\n";
          ]))

let test_word_boundary () =
  Alcotest.check findings "a longer word is not a reference"
    [ "unset lib/fx/widget.mli lonely ?knob"; "val lib/fx/widget.mli lonely" ]
    (scan
       (tree
          [ main_ml "let lonely_too = Widget.used 1\nlet _ = f ~knobs:1\n" ]))

let test_declaration_is_not_a_caller () =
  Alcotest.check findings "another interface declaring ?knob sets nothing"
    [ "unset lib/fx/widget.mli lonely ?knob" ]
    (scan
       (tree
          [
            main_ml "let () = print_int (Widget.used (Widget.lonely ()))\n";
            { path = "bin/main.mli"; text = "val run : ?knob:int -> unit\n" };
          ]))

let test_test_only_option () =
  Alcotest.check findings "an option only a test sets is its own finding"
    [ "test-only lib/fx/widget.mli lonely ?knob" ]
    (scan
       (tree
          [
            main_ml "let () = print_int (Widget.used (Widget.lonely ()))\n";
            { path = "test/t.ml"; text = "let _ = Widget.lonely ~knob:3 ()\n" };
          ]))

let test_allowlist () =
  let entries, errors =
    parse_allowlist
      "# comment\n\nval lib/a.mli x -- kept for a reason\nval lib/a.mli y --\n"
  in
  Alcotest.(check (list (pair string string)))
    "entries" [ ("val lib/a.mli x", "kept for a reason") ] entries;
  Alcotest.(check int) "an entry without a reason is an error" 1
    (List.length errors)

let test_inventory () =
  let design =
    "# D\n\n## 1. System inventory\n\n| `alpha` | x |\n\n## 2. Next\n\n`beta`\n"
  in
  let inventory = section ~heading:"## 1. " design in
  Alcotest.(check (list string))
    "names" [ "alpha"; "beta" ]
    (library_names
       "(library\n (name alpha))\n(library (name beta) (modules b))");
  Alcotest.(check (list string))
    "only section 1 counts" [ "beta" ]
    (missing_libraries ~inventory [ "alpha"; "beta" ])

let () =
  Alcotest.run "export_audit"
    [
      ( "scan",
        [
          Alcotest.test_case "reports both" `Quick test_reports_both;
          Alcotest.test_case "own module" `Quick
            test_own_module_is_not_a_caller;
          Alcotest.test_case "caller clears" `Quick test_caller_clears;
          Alcotest.test_case "word boundary" `Quick test_word_boundary;
          Alcotest.test_case "declaration is not a caller" `Quick
            test_declaration_is_not_a_caller;
          Alcotest.test_case "test-only option" `Quick test_test_only_option;
        ] );
      ( "gate",
        [
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "inventory" `Quick test_inventory;
        ] );
    ]
