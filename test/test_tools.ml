(* Tests for the higher-level tooling: the chime-aware list scheduler,
   the goal-directed advisor, the full Livermore suite driver, and the
   utilization report. *)

open Convex_isa
open Convex_machine

let machine = Machine.c240

(* ---- Schedule ---- *)

let test_pack_is_permutation () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let body = Program.body c.program in
      let packed = Fcc.Schedule.pack_exn ~machine body in
      let sort l = List.sort compare (List.map Instr.show l) in
      Alcotest.(check (list string))
        (k.name ^ " permutation")
        (sort body) (sort packed))
    Lfk.Kernels.all

let test_pack_preserves_lfk1 () =
  (* LFK1's depth-first schedule is already optimally packed: the
     scheduler must leave it untouched *)
  let v61 = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let packed =
    Fcc.Compiler.compile ~opt:Fcc.Opt_level.packed (Lfk.Kernels.find 1)
  in
  Alcotest.(check bool) "identical body" true
    (List.equal Instr.equal
       (Program.body v61.program)
       (Program.body packed.program))

let test_pack_improves_lfk8 () =
  let v61 = Macs.Hierarchy.analyze (Lfk.Kernels.find 8) in
  let packed =
    Macs.Hierarchy.analyze ~opt:Fcc.Opt_level.packed (Lfk.Kernels.find 8)
  in
  Alcotest.(check bool) "bound improves" true
    (packed.t_macs.Macs.Macs_bound.cpl
    < v61.t_macs.Macs.Macs_bound.cpl -. 0.5);
  Alcotest.(check bool) "measured improves" true
    (packed.t_p.Convex_vpsim.Measure.cpl
    < v61.t_p.Convex_vpsim.Measure.cpl)

let test_pack_never_worse () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let v61 = Macs.Hierarchy.analyze k in
      let packed = Macs.Hierarchy.analyze ~opt:Fcc.Opt_level.packed k in
      Alcotest.(check bool)
        (k.name ^ " packed bound <= v61 bound")
        true
        (packed.t_macs.Macs.Macs_bound.cpl
        <= v61.t_macs.Macs.Macs_bound.cpl +. 1e-6))
    Lfk.Kernels.all

let test_pack_functional () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.packed k in
      let got = Fcc.Compiler.run_interp c in
      let want = Lfk.Data.store_of k in
      Lfk.Reference.run k want;
      List.iter
        (fun name ->
          let g = Convex_vpsim.Store.get got name in
          let w = Convex_vpsim.Store.get want name in
          Array.iteri
            (fun i wv ->
              if Float.abs (g.(i) -. wv) > 1e-9 *. (Float.abs wv +. 1.0)
              then Alcotest.failf "%s %s[%d]" k.name name i)
            w)
        (Lfk.Reference.output_arrays k))
    Lfk.Kernels.all

let test_pack_respects_dependences () =
  (* RAW: the consumer must stay after its producer *)
  let body =
    [
      Instr.Vld { dst = Reg.v 0; src = { array = "A"; offset = 0; stride = 1 } };
      Instr.Vbin { op = Add; dst = Reg.v 1; src1 = Vr (Reg.v 0); src2 = Vr (Reg.v 0) };
      Instr.Vst { src = Reg.v 1; dst = { array = "B"; offset = 0; stride = 1 } };
    ]
  in
  let packed = Fcc.Schedule.pack_exn ~machine body in
  Alcotest.(check (list string)) "order kept"
    (List.map Instr.show body)
    (List.map Instr.show packed)

let test_pack_memory_order () =
  (* a store and a later load of the same array may not swap *)
  let body =
    [
      Instr.Vst { src = Reg.v 0; dst = { array = "A"; offset = 0; stride = 1 } };
      Instr.Vld { dst = Reg.v 1; src = { array = "A"; offset = 0; stride = 1 } };
    ]
  in
  let packed = Fcc.Schedule.pack_exn ~machine body in
  match packed with
  | [ Instr.Vst _; Instr.Vld _ ] -> ()
  | _ -> Alcotest.fail "store/load order violated"

let test_chime_count_model () =
  let body = Program.body (Fcc.Compiler.compile (Lfk.Kernels.find 1)).program in
  Alcotest.(check int) "lfk1 four chimes" 4
    (Fcc.Schedule.chime_count ~machine body);
  (* the compiler's model agrees with the analysis library's partition *)
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let b = Program.body (Fcc.Compiler.compile k).program in
      Alcotest.(check int) (k.name ^ " chime models agree")
        (List.length (Macs.Chime.partition ~machine b))
        (Fcc.Schedule.chime_count ~machine b))
    Lfk.Kernels.all

(* ---- Advisor ---- *)

let test_advisor_lfk1_top_is_reuse () =
  match Macs.Advisor.advise (Lfk.Kernels.find 1) with
  | top :: _ ->
      Alcotest.(check bool) "compiler suggestion" true
        (top.Macs.Advisor.target = Macs.Advisor.Compiler);
      Alcotest.(check bool) "substantial" true (top.gain > 0.15)
  | [] -> Alcotest.fail "no advice for lfk1"

let test_advisor_sorted_by_gain () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let suggestions = Macs.Advisor.advise k in
      let rec sorted = function
        | (a : Macs.Advisor.suggestion) :: (b :: _ as rest) ->
            a.gain >= b.gain -. 1e-12 && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) (k.name ^ " sorted") true (sorted suggestions);
      List.iter
        (fun (s : Macs.Advisor.suggestion) ->
          Alcotest.(check bool) "gain above threshold" true (s.gain > 0.01);
          Alcotest.(check bool) "gain below 1" true (s.gain < 1.0))
        suggestions)
    Lfk.Kernels.all

let test_advisor_scalar_kernel () =
  match Macs.Advisor.advise Lfk.Kernels.lfk5 with
  | [ s ] ->
      Alcotest.(check bool) "application-level" true
        (s.Macs.Advisor.target = Macs.Advisor.Application);
      Alcotest.(check bool) "large gain" true (s.gain > 0.5)
  | l -> Alcotest.failf "expected one suggestion, got %d" (List.length l)

let test_advisor_threshold () =
  let all = Macs.Advisor.advise ~threshold:0.0001 (Lfk.Kernels.find 1) in
  let strict = Macs.Advisor.advise ~threshold:0.15 (Lfk.Kernels.find 1) in
  Alcotest.(check bool) "threshold filters" true
    (List.length strict < List.length all);
  Alcotest.(check int) "only the reuse suggestion survives 15%" 1
    (List.length strict)

let test_advisor_report_renders () =
  let r = Macs.Advisor.report (Lfk.Kernels.find 12) in
  Alcotest.(check bool) "mentions reuse" true
    (String.length r > 40 && String.sub r 0 5 = "lfk12")

(* Reference advice: each candidate is t_p of a full [Hierarchy.analyze]
   at its machine variant and opt, and the spill row scales the baseline
   by the bound ratio without the scalar reloads. *)
let reference_advice ~machine (k : Lfk.Kernel.t) =
  let t_p ?(machine = machine) ?opt () =
    Macs.Hierarchy.t_p_cpf (Macs.Hierarchy.analyze ~machine ?opt k)
  in
  let base = t_p () in
  let spill () =
    let c = Fcc.Compiler.compile k in
    let body = Program.body c.program in
    let cpl b = (Macs.Macs_bound.compute ~machine b).Macs.Macs_bound.cpl in
    let without = List.filter (fun i -> not (Instr.is_scalar_memory i)) body in
    base *. (cpl without /. Float.max 1e-9 (cpl body))
  in
  ( base,
    [
      ("ideal compiler reuse", fun () -> t_p ~opt:Fcc.Opt_level.ideal ());
      ("(packed)", fun () -> t_p ~opt:Fcc.Opt_level.packed ());
      ("tailgate", fun () -> t_p ~machine:(Machine.no_bubbles machine) ());
      ("refresh", fun () -> t_p ~machine:(Machine.no_refresh machine) ());
      ("load/store pipe", fun () ->
          t_p ~machine:(Machine.dual_load_store machine) ());
      ("spilled coefficients", spill);
    ] )

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_advisor_matches_hierarchy () =
  let machines =
    Machine.presets
    @ [
        ( "c240;banks=64",
          Result.get_ok (Convex_dsl.Machine_dsl.parse "c240;banks=64") );
      ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun (k : Lfk.Kernel.t) ->
          let got = Macs.Advisor.advise ~machine ~threshold:neg_infinity k in
          let base, candidates = reference_advice ~machine k in
          List.iter
            (fun (s : Macs.Advisor.suggestion) ->
              let where = Printf.sprintf "%s/%s: %s" k.name mname s.action in
              Alcotest.(check int64) (where ^ " baseline") (bits base)
                (bits s.baseline_cpf);
              if s.target <> Macs.Advisor.Application then
                match
                  List.find_opt (fun (key, _) -> contains s.action key)
                    candidates
                with
                | Some (_, want) ->
                    Alcotest.(check int64) (where ^ " projected")
                      (bits (want ())) (bits s.projected_cpf)
                | None -> Alcotest.failf "%s: unknown candidate" where)
            got;
          let expected =
            if not (Fcc.Vectorizer.vectorizable k) then 1
            else if (Fcc.Compiler.compile k).spilled_scalars = [] then 5
            else 6
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s candidates" k.name mname)
            expected (List.length got))
        (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels))
    machines

(* ---- Layout ---- *)

(* Reference layout from materialized data: every array's storage built,
   aliases found by physical equality and applied in the reverse of store
   order. *)
let store_layout (c : Fcc.Compiler.t) =
  let store = Fcc.Compiler.initial_store c in
  let entries, aliases =
    List.fold_left
      (fun (entries, aliases) name ->
        let arr = Convex_vpsim.Store.get store name in
        match List.find_opt (fun (_, arr') -> arr' == arr) entries with
        | Some (target, _) -> (entries, (name, target) :: aliases)
        | None -> ((name, arr) :: entries, aliases))
      ([], []) (Convex_vpsim.Store.arrays store)
  in
  let layout =
    Convex_memsys.Layout.build
      (List.rev_map (fun (name, arr) -> (name, Array.length arr)) entries)
  in
  List.iter
    (fun (name, target) ->
      Convex_memsys.Layout.alias layout ~existing:target name)
    aliases;
  (layout, Convex_vpsim.Store.arrays store)

(* [None] when the declared layout equals the store-derived one: same
   placement order, same base and size for every array, alias and the
   spill pool *)
let layout_mismatch c =
  let module L = Convex_memsys.Layout in
  let want, names = store_layout c in
  let got = Macs.Hierarchy.layout_of c in
  if L.arrays got <> L.arrays want then
    Some
      (Printf.sprintf "order [%s] vs [%s]"
         (String.concat ";" (L.arrays got))
         (String.concat ";" (L.arrays want)))
  else
    List.find_map
      (fun n ->
        let place l = (L.base_of l n, L.size_of l n) in
        let (gb, gs), (wb, ws) = (place got, place want) in
        if (gb, gs) = (wb, ws) then None
        else Some (Printf.sprintf "%s at %d+%d vs %d+%d" n gb gs wb ws))
      names

let test_layout_lfk () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      List.iter
        (fun opt ->
          match layout_mismatch (Fcc.Compiler.compile ~opt k) with
          | None -> ()
          | Some m ->
              Alcotest.failf "%s/%s: %s" k.name (Fcc.Opt_level.name opt) m)
        Fcc.Opt_level.[ v61; ideal; loads_first; packed ])
    (Lfk.Kernels.all @ Lfk.Kernels.scalar_kernels)

(* fuzz kernels, with a few extra aliases of their declared arrays *)
let aliased_kernel_arbitrary =
  let open QCheck.Gen in
  let gen =
    oneofl Convex_fuzz.Gen.[ Vector_profile; Scalar_profile ] >>= fun p ->
    Convex_fuzz.Gen.fuzz_kernel_gen p >>= fun (k : Lfk.Kernel.t) ->
    list_size (int_bound 3) (oneofl (List.map fst k.arrays)) >|= fun ts ->
    {
      k with
      aliases = k.aliases @ List.mapi (fun i t -> (Printf.sprintf "AL%d" i, t)) ts;
    }
  in
  QCheck.make ~print:Lfk.Codec.to_string gen

let prop_layout_fuzz =
  QCheck.Test.make ~count:200 ~name:"declared layout = store layout (fuzz)"
    aliased_kernel_arbitrary (fun k ->
      match layout_mismatch (Fcc.Compiler.compile k) with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* ---- Suite ---- *)

let suite = lazy (Macs_report.Suite.run ())

let test_suite_covers_twelve () =
  let s = Lazy.force suite in
  Alcotest.(check (list int)) "kernels 1-12"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.map (fun (r : Macs_report.Suite.row) -> r.kernel.id) s.rows)

let test_suite_checksums_verified () =
  let s = Lazy.force suite in
  List.iter
    (fun (r : Macs_report.Suite.row) ->
      match r.outcome with
      | Ok p ->
          Alcotest.(check bool)
            (Printf.sprintf "lfk%d checksum" r.kernel.id)
            true p.checksum_ok
      | Error e ->
          Alcotest.failf "lfk%d failed on the healthy machine: %s" r.kernel.id
            (Macs_util.Macs_error.to_string e))
    s.rows

let test_suite_modes () =
  let s = Lazy.force suite in
  List.iter
    (fun (r : Macs_report.Suite.row) ->
      let expected =
        if r.kernel.id = 5 || r.kernel.id = 11 then Convex_vpsim.Job.Scalar
        else Convex_vpsim.Job.Vector
      in
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d mode" r.kernel.id)
        true (r.mode = expected))
    s.rows

let test_suite_hmeans () =
  let s = Lazy.force suite in
  Alcotest.(check bool) "scalar kernels drag the overall mean" true
    (s.overall_hmean_mflops < s.vector_hmean_mflops);
  Alcotest.(check bool) "vector hmean in a sane band" true
    (s.vector_hmean_mflops > 10.0 && s.vector_hmean_mflops < 25.0)

let test_suite_render () =
  let text = Macs_report.Suite.render (Lazy.force suite) in
  Alcotest.(check bool) "mentions verification" true
    (String.length text > 200)

(* ---- utilization report ---- *)

let test_utilization () =
  let ds = Macs_report.Dataset.compute () in
  let u = Macs_report.Tables.utilization ds in
  let contains needle =
    let nl = String.length needle and hl = String.length u in
    let rec go i = i + nl <= hl && (String.sub u i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has bottleneck column" true (contains "bottleneck");
  (* every kernel in the paper's set is memory-bound or balanced: the
     load/store pipe is always the (joint) bottleneck *)
  Alcotest.(check bool) "load/store bottleneck" true (contains "load/store")

(* ---- Gallery ---- *)

let test_gallery_validates () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      match Lfk.Kernel.validate k with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" k.name e)
    Lfk.Gallery.all

let test_gallery_functional () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let got = Fcc.Compiler.run_interp c in
      let want = Lfk.Data.store_of k in
      Lfk.Gallery.run_reference k want;
      List.iter
        (fun name ->
          let g = Convex_vpsim.Store.get got name in
          let w = Convex_vpsim.Store.get want name in
          Array.iteri
            (fun i wv ->
              if Float.abs (g.(i) -. wv) > 1e-9 *. (Float.abs wv +. 1.0)
              then Alcotest.failf "%s %s[%d]" k.name name i)
            w)
        (Lfk.Gallery.output_arrays k))
    Lfk.Gallery.all

let test_gallery_find () =
  Alcotest.(check string) "triad" "triad" (Lfk.Gallery.find 103).name;
  Alcotest.check_raises "200" Not_found (fun () ->
      ignore (Lfk.Gallery.find 200))

let test_gather16_macd_story () =
  (* the D-bound explains the stride-16 gather that MACS cannot *)
  let c = Fcc.Compiler.compile Lfk.Gallery.gather16 in
  let body = Convex_isa.Program.body c.program in
  let macs = (Macs.Macs_bound.compute ~machine body).Macs.Macs_bound.cpl in
  let macd = (Macs.Dbound.compute ~machine body).Macs.Dbound.t_macd in
  let m =
    Convex_vpsim.Measure.run_exn ~machine
      ~flops_per_iteration:c.flops_per_iteration c.job
  in
  Alcotest.(check bool) "MACS misses" true (macs < 2.5);
  Alcotest.(check (float 0.01)) "MACD 5 CPL" 5.0 macd;
  Alcotest.(check bool) "measured tracks MACD" true
    (Float.abs (m.Convex_vpsim.Measure.cpl -. macd) /. macd < 0.05)

let test_rcp_divide_masking () =
  (* the divide's Z=4 drain is exposed: two other loads and a store keep
     the loop memory bound but the measured time exceeds the plain MACS
     memory chimes *)
  let c = Fcc.Compiler.compile Lfk.Gallery.rcp_update in
  let m =
    Convex_vpsim.Measure.run_exn ~machine
      ~flops_per_iteration:c.flops_per_iteration c.job
  in
  Alcotest.(check bool) "divide costs" true (m.Convex_vpsim.Measure.cpl > 4.0)

(* ---- Roofline ---- *)

let test_roofline_c240_roofs () =
  Alcotest.(check (float 1e-9)) "ridge" 0.25
    (Macs.Roofline.ridge_intensity ~machine);
  let r = Macs.Roofline.of_kernel (Lfk.Kernels.find 1) in
  Alcotest.(check (float 1e-9)) "peak 50" 50.0 r.peak_mflops;
  Alcotest.(check (float 1e-9)) "bw 200" 200.0 r.bandwidth_mbs;
  (* lfk1: 5 flops, 3 memory ops -> AI = 5/24 *)
  Alcotest.(check (float 1e-9)) "AI" (5.0 /. 24.0) r.arithmetic_intensity;
  Alcotest.(check bool) "memory bound" true r.memory_bound

let test_roofline_equals_ma_when_balanced () =
  (* lfk7: 8 adds, 8 muls, memory-dominated MA -> the two bounds agree *)
  let r = Macs.Roofline.of_kernel (Lfk.Kernels.find 7) in
  Alcotest.(check (float 1e-6)) "coincide" r.roofline_mflops r.ma_mflops

let test_ma_refines_roofline_everywhere () =
  List.iter
    (fun (k : Lfk.Kernel.t) ->
      let r = Macs.Roofline.of_kernel k in
      Alcotest.(check bool) (k.name ^ " MA <= roofline") true
        (Macs.Roofline.ma_refines_roofline r))
    (Lfk.Kernels.all @ Lfk.Gallery.all)

let test_roofline_lfk8_strictly_tighter () =
  (* 21 adds vs 15 muls: the MA bound knows the imbalance *)
  let r = Macs.Roofline.of_kernel (Lfk.Kernels.find 8) in
  Alcotest.(check bool) "strictly tighter" true
    (r.ma_mflops < r.roofline_mflops -. 1.0)

let test_roofline_render () =
  let s = Macs_report.Tables.roofline () in
  Alcotest.(check bool) "mentions ridge" true (String.length s > 100)

(* ---- Application ---- *)

let test_application_shares () =
  let app =
    Macs.Application.analyze
      [ (Lfk.Kernels.find 7, 40.0); (Lfk.Kernels.find 1, 30.0) ]
  in
  let total =
    List.fold_left
      (fun acc (c : Macs.Application.component) -> acc +. c.share)
      0.0 app.components
  in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total;
  (* components sorted by share *)
  (match app.components with
  | a :: b :: _ -> Alcotest.(check bool) "sorted" true (a.share >= b.share)
  | _ -> Alcotest.fail "two components expected");
  Alcotest.(check bool) "aggregate mflops sane" true
    (app.mflops > 10.0 && app.mflops < 50.0)

let test_application_advice_weighting () =
  (* lfk2 has bigger per-kernel gains than lfk7, but with a tiny share its
     application-level gain ranks below lfk7's *)
  let app =
    Macs.Application.analyze
      [ (Lfk.Kernels.find 7, 100.0); (Lfk.Kernels.find 2, 1.0) ]
  in
  match Macs.Application.advise app with
  | top :: _ ->
      Alcotest.(check string) "dominant kernel wins" "lfk7" top.kernel_name
  | [] -> Alcotest.fail "no advice"

let test_application_guards () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Application.analyze: empty mix") (fun () ->
      ignore (Macs.Application.analyze []));
  Alcotest.check_raises "weight"
    (Invalid_argument "Application.analyze: nonpositive weight") (fun () ->
      ignore (Macs.Application.analyze [ (Lfk.Kernels.find 1, 0.0) ]))

let test_application_render () =
  let app = Macs.Application.analyze [ (Lfk.Kernels.find 1, 1.0) ] in
  let s = Macs.Application.render app in
  Alcotest.(check bool) "renders" true (String.length s > 100)

(* ---- Trace export ---- *)

let test_trace_export_shape () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let job =
    {
      c.job with
      Convex_vpsim.Job.segments = [ Convex_vpsim.Job.segment 128 ];
    }
  in
  let r = Convex_vpsim.Sim.run_exn ~trace:true job in
  let json = Convex_vpsim.Trace_export.to_chrome_json r in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i =
      i + nl <= hl && (String.sub json i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "traceEvents" true (contains "traceEvents");
  Alcotest.(check bool) "load/store track" true (contains "load/store pipe");
  Alcotest.(check bool) "vld event" true (contains "vld");
  Alcotest.(check bool) "balanced braces" true
    (json.[0] = '{' && json.[String.length json - 1] = '}')

let test_trace_export_untraced () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 1) in
  let r = Convex_vpsim.Sim.run_exn c.job in
  let json = Convex_vpsim.Trace_export.to_chrome_json r in
  (* metadata only, no instruction events *)
  Alcotest.(check bool) "no vld" true
    (not
       (let rec go i =
          i + 3 <= String.length json
          && (String.sub json i 3 = "vld" || go (i + 1))
        in
        go 0))

let test_trace_export_file () =
  let c = Fcc.Compiler.compile (Lfk.Kernels.find 12) in
  let r = Convex_vpsim.Sim.run_exn ~trace:true c.job in
  let path = Filename.temp_file "macs_trace" ".json" in
  Convex_vpsim.Trace_export.write_file path r;
  let ok = Sys.file_exists path in
  Sys.remove path;
  Alcotest.(check bool) "written" true ok

(* ---- design space ---- *)

let test_design_space_vl_monotone () =
  (* longer registers never hurt these kernels *)
  let cpf max_vl id =
    let machine = { Machine.c240 with Machine.max_vl } in
    Macs.Hierarchy.t_p_cpf (Macs.Hierarchy.analyze ~machine (Lfk.Kernels.find id))
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "lfk%d VL=128 <= VL=32" id)
        true
        (cpf 128 id <= cpf 32 id +. 1e-9))
    [ 1; 3; 7; 12 ]

let test_design_space_banks () =
  (* doubling banks doubles the tolerable stride *)
  let rate banks stride =
    let machine =
      { Machine.c240 with Machine.memory = { Machine.c240.memory with banks } }
    in
    Macs.Dbound.stream_rate ~machine ~stride
  in
  Alcotest.(check (float 1e-9)) "16 banks, stride 8" 0.25 (rate 16 8);
  Alcotest.(check (float 1e-9)) "64 banks, stride 8" 1.0 (rate 64 8);
  Alcotest.(check (float 1e-9)) "8 banks, stride 4" 0.25 (rate 8 4)

let test_design_space_render () =
  let s = Macs_report.Tables.design_space () in
  Alcotest.(check bool) "renders" true (String.length s > 300)

let () =
  Alcotest.run "tools"
    [
      ( "schedule",
        [
          Alcotest.test_case "permutation" `Quick test_pack_is_permutation;
          Alcotest.test_case "lfk1 untouched" `Quick test_pack_preserves_lfk1;
          Alcotest.test_case "lfk8 improves" `Quick test_pack_improves_lfk8;
          Alcotest.test_case "never worse" `Quick test_pack_never_worse;
          Alcotest.test_case "functional" `Quick test_pack_functional;
          Alcotest.test_case "dependences" `Quick
            test_pack_respects_dependences;
          Alcotest.test_case "memory order" `Quick test_pack_memory_order;
          Alcotest.test_case "chime model agrees" `Quick
            test_chime_count_model;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "lfk1 reuse on top" `Quick
            test_advisor_lfk1_top_is_reuse;
          Alcotest.test_case "sorted by gain" `Quick test_advisor_sorted_by_gain;
          Alcotest.test_case "scalar kernels" `Quick test_advisor_scalar_kernel;
          Alcotest.test_case "threshold" `Quick test_advisor_threshold;
          Alcotest.test_case "report" `Quick test_advisor_report_renders;
          Alcotest.test_case "equals its hierarchy definition" `Quick
            test_advisor_matches_hierarchy;
        ] );
      ( "layout",
        [
          Alcotest.test_case "declared = store-derived, LFKs" `Quick
            test_layout_lfk;
          QCheck_alcotest.to_alcotest prop_layout_fuzz;
        ] );
      ( "suite",
        [
          Alcotest.test_case "twelve kernels" `Quick test_suite_covers_twelve;
          Alcotest.test_case "checksums" `Quick test_suite_checksums_verified;
          Alcotest.test_case "modes" `Quick test_suite_modes;
          Alcotest.test_case "harmonic means" `Quick test_suite_hmeans;
          Alcotest.test_case "render" `Quick test_suite_render;
        ] );
      ( "utilization",
        [ Alcotest.test_case "report" `Quick test_utilization ] );
      ( "gallery",
        [
          Alcotest.test_case "validates" `Quick test_gallery_validates;
          Alcotest.test_case "functional" `Quick test_gallery_functional;
          Alcotest.test_case "find" `Quick test_gallery_find;
          Alcotest.test_case "gather16 MACD story" `Quick
            test_gather16_macd_story;
          Alcotest.test_case "divide masking" `Quick test_rcp_divide_masking;
        ] );
      ( "application",
        [
          Alcotest.test_case "shares" `Quick test_application_shares;
          Alcotest.test_case "advice weighting" `Quick
            test_application_advice_weighting;
          Alcotest.test_case "guards" `Quick test_application_guards;
          Alcotest.test_case "render" `Quick test_application_render;
        ] );
      ( "trace-export",
        [
          Alcotest.test_case "shape" `Quick test_trace_export_shape;
          Alcotest.test_case "untraced" `Quick test_trace_export_untraced;
          Alcotest.test_case "file" `Quick test_trace_export_file;
        ] );
      ( "design-space",
        [
          Alcotest.test_case "VL monotone" `Quick
            test_design_space_vl_monotone;
          Alcotest.test_case "bank scaling" `Quick test_design_space_banks;
          Alcotest.test_case "render" `Quick test_design_space_render;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "C-240 roofs" `Quick test_roofline_c240_roofs;
          Alcotest.test_case "balanced = MA" `Quick
            test_roofline_equals_ma_when_balanced;
          Alcotest.test_case "MA refines everywhere" `Quick
            test_ma_refines_roofline_everywhere;
          Alcotest.test_case "lfk8 strictly tighter" `Quick
            test_roofline_lfk8_strictly_tighter;
          Alcotest.test_case "render" `Quick test_roofline_render;
        ] );
    ]
