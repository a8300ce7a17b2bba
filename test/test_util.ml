(* Tests for macs_util: statistics, table rendering, charts, CSV. *)

open Macs_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) what expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.9f, got %.9f" what expected actual

(* ---- Stats ---- *)

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_singleton () = check_float "mean" 7.0 (Stats.mean [| 7.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let test_harmonic_mean () =
  (* harmonic mean of 1 and 2 is 4/3 *)
  check_float "hmean" (4.0 /. 3.0) (Stats.harmonic_mean [| 1.0; 2.0 |])

let test_harmonic_mean_zero () =
  (* a zero rate sinks the harmonic mean to zero, not to a division trap:
     suites fold failed kernels in as 0 MFLOPS *)
  check_float "zero element" 0.0 (Stats.harmonic_mean [| 1.0; 0.0 |]);
  check_float "all zero" 0.0 (Stats.harmonic_mean [| 0.0; 0.0 |]);
  check_float "empty" 0.0 (Stats.harmonic_mean [||])

let test_harmonic_mean_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Stats.harmonic_mean: negative element")
    (fun () -> ignore (Stats.harmonic_mean [| 1.0; -2.0 |]))

let test_harmonic_mean_never_nan =
  QCheck.Test.make ~count:300 ~name:"harmonic_mean is total on [0,inf)"
    QCheck.(array_of_size Gen.(int_range 0 20) (float_range 0.0 1000.0))
    (fun xs ->
      let h = Stats.harmonic_mean xs in
      Float.is_finite h && h >= 0.0)

let test_geometric_mean () =
  check_float "gmean" 2.0 (Stats.geometric_mean [| 1.0; 4.0 |])

let test_variance () =
  (* population variance of 1,3,5 is 8/3 *)
  check_float "variance" (8.0 /. 3.0) (Stats.variance [| 1.0; 3.0; 5.0 |]);
  check_float "stddev" (sqrt (8.0 /. 3.0)) (Stats.stddev [| 1.0; 3.0; 5.0 |])

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 2.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 3.0 hi

let test_median_odd () =
  check_float "median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

let test_median_even () =
  check_float "median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_median_does_not_mutate () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median xs);
  Alcotest.(check (list (float 0.0)))
    "unchanged" [ 3.0; 1.0; 2.0 ] (Array.to_list xs)

let test_percentile () =
  let xs = [| 0.0; 10.0; 20.0; 30.0; 40.0 |] in
  check_float "p0" 0.0 (Stats.percentile 0.0 xs);
  check_float "p100" 40.0 (Stats.percentile 100.0 xs);
  check_float "p50" 20.0 (Stats.percentile 50.0 xs);
  check_float "p25" 10.0 (Stats.percentile 25.0 xs)

let test_linear_fit () =
  (* exact line y = 3 + 2x *)
  let pts = [ (1.0, 5.0); (2.0, 7.0); (3.0, 9.0) ] in
  let intercept, slope = Stats.linear_fit pts in
  check_float "intercept" 3.0 intercept;
  check_float "slope" 2.0 slope

let test_linear_fit_degenerate () =
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Stats.linear_fit: degenerate abscissae")
    (fun () -> ignore (Stats.linear_fit [ (1.0, 2.0); (1.0, 3.0) ]))

let test_rel_error () =
  check_float "rel" 0.1 (Stats.rel_error ~actual:110.0 ~expected:100.0);
  Alcotest.(check bool)
    "within" true
    (Stats.within ~tolerance:0.02 ~actual:101.9 ~expected:100.0);
  Alcotest.(check bool)
    "not within" false
    (Stats.within ~tolerance:0.02 ~actual:103.0 ~expected:100.0)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] () in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "10"; "20" ];
  let s = Table.render t in
  Alcotest.(check string)
    "render" " a | bb\n---+---\n 1 |  2\n10 | 20" s

let test_table_alignment () =
  let t =
    Table.create ~aligns:[ Table.Left; Table.Center ] ~header:[ "x"; "yyy" ]
      ()
  in
  Table.add_row t [ "ab"; "c" ];
  let s = Table.render t in
  Alcotest.(check string) "aligned" "x  | yyy\n---+----\nab |  c " s

let test_table_separator () =
  let t = Table.create ~header:[ "a" ] () in
  Table.add_row t [ "1" ];
  Table.add_separator t;
  Table.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  Alcotest.(check int) "5 lines" 5 (List.length lines);
  (* header, rule, "1", separator, "2" *)
  Alcotest.(check string) "rule" "-" (List.nth lines 3)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_aligns_mismatch () =
  Alcotest.check_raises "aligns"
    (Invalid_argument "Table.create: aligns length mismatch")
    (fun () -> ignore (Table.create ~aligns:[ Table.Left ] ~header:[ "a"; "b" ] ()))

let test_cells () =
  Alcotest.(check string) "float" "1.234" (Table.cell_float 1.2341);
  Alcotest.(check string) "float2" "1.23" (Table.cell_float ~decimals:2 1.2341);
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "pct" "70.4%" (Table.cell_pct 0.704);
  Alcotest.(check string) "opt none" "-" (Table.cell_opt Table.cell_int None);
  Alcotest.(check string)
    "opt some" "3"
    (Table.cell_opt Table.cell_int (Some 3))

(* ---- Chart ---- *)

let test_chart_render () =
  let s =
    Chart.render ~categories:[ "k1"; "k2" ]
      [ { Chart.label = "a"; glyph = '#'; values = [| 1.0; 2.0 |] } ]
  in
  Alcotest.(check bool) "contains k1" true
    (String.length s > 0 && String.index_opt s '#' <> None);
  (* largest value spans the full width *)
  let lines = String.split_on_char '\n' s in
  let k2bar = List.nth lines 3 in
  let glyphs = String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 in
  Alcotest.(check int) "full width" 50 (glyphs k2bar)

let test_chart_mismatch () =
  Alcotest.check_raises "length"
    (Invalid_argument "Chart.render: series length mismatch")
    (fun () ->
      ignore
        (Chart.render ~categories:[ "a" ]
           [ { Chart.label = "s"; glyph = '#'; values = [| 1.0; 2.0 |] } ]))

let test_chart_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Chart.render: negative value")
    (fun () ->
      ignore
        (Chart.render ~categories:[ "a" ]
           [ { Chart.label = "s"; glyph = '#'; values = [| -1.0 |] } ]))

let test_chart_empty_series () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Chart.render: no series")
    (fun () -> ignore (Chart.render ~categories:[ "a" ] []))

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Chart.render_sparkline [||]);
  let s = Chart.render_sparkline [| 0.0; 1.0 |] in
  Alcotest.(check int) "two glyphs" 2 (String.length s)

(* ---- Csv ---- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_render () =
  let s = Csv.render ~header:[ "x"; "y" ] [ [ "1"; "a,b" ] ] in
  Alcotest.(check string) "csv" "x,y\n1,\"a,b\"\n" s

let test_csv_write_file () =
  let path = Filename.temp_file "macs_test" ".csv" in
  Csv.write_file path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file" "a\n1\n2\n" contents

(* ---- qcheck properties ---- *)

let pos_floats =
  QCheck.(array_of_size Gen.(int_range 1 40) (float_range 0.001 1000.0))

let prop_mean_bounds =
  QCheck.Test.make ~count:200 ~name:"mean between min and max" pos_floats
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_hm_le_gm_le_am =
  QCheck.Test.make ~count:200
    ~name:"harmonic <= geometric <= arithmetic mean" pos_floats (fun xs ->
      let h = Stats.harmonic_mean xs
      and g = Stats.geometric_mean xs
      and a = Stats.mean xs in
      h <= g +. 1e-6 && g <= a +. 1e-6)

let prop_csv_roundtrip_quotes =
  QCheck.Test.make ~count:200 ~name:"csv escape keeps content parseable"
    QCheck.(string_gen_of_size Gen.(int_range 0 30) Gen.printable)
    (fun s ->
      let e = Csv.escape s in
      (* unescape: strip quotes, fold doubled quotes *)
      let unescaped =
        if String.length e >= 2 && e.[0] = '"' then begin
          let inner = String.sub e 1 (String.length e - 2) in
          let buf = Buffer.create (String.length inner) in
          let i = ref 0 in
          while !i < String.length inner do
            if
              inner.[!i] = '"'
              && !i + 1 < String.length inner
              && inner.[!i + 1] = '"'
            then begin
              Buffer.add_char buf '"';
              i := !i + 2
            end
            else begin
              Buffer.add_char buf inner.[!i];
              incr i
            end
          done;
          Buffer.contents buf
        end
        else e
      in
      String.equal unescaped s)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mean_bounds;
      prop_hm_le_gm_le_am;
      prop_csv_roundtrip_quotes;
      test_harmonic_mean_never_nan;
    ]

let () =
  Alcotest.run "macs_util"
    [
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean singleton" `Quick test_mean_singleton;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
          Alcotest.test_case "harmonic zero and empty" `Quick
            test_harmonic_mean_zero;
          Alcotest.test_case "harmonic negative" `Quick
            test_harmonic_mean_negative;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "variance and stddev" `Quick test_variance;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "median pure" `Quick test_median_does_not_mutate;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "linear fit degenerate" `Quick
            test_linear_fit_degenerate;
          Alcotest.test_case "relative error" `Quick test_rel_error;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "aligns mismatch" `Quick
            test_table_aligns_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_cells;
        ] );
      ( "chart",
        [
          Alcotest.test_case "render" `Quick test_chart_render;
          Alcotest.test_case "length mismatch" `Quick test_chart_mismatch;
          Alcotest.test_case "negative value" `Quick test_chart_negative;
          Alcotest.test_case "empty series" `Quick test_chart_empty_series;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "render" `Quick test_csv_render;
          Alcotest.test_case "write file" `Quick test_csv_write_file;
        ] );
      ("properties", qcheck_tests);
    ]
