(* Tests for the compiler: MAC counts against Table 2, schedule shape,
   register discipline, scalar spilling, reduction lowering, optimization
   levels, and functional equivalence with the reference kernels. *)

open Convex_isa
open Lfk

let compile ?opt id = Fcc.Compiler.compile ?opt (Kernels.find id)

let count_instr pred (c : Fcc.Compiler.t) = Program.count pred c.program

let vclass_count cls c =
  count_instr (fun i -> Instr.vclass_of i = Some cls) c

(* the reconstructed Table 2 MAC counts: (id, f_a', f_m', l', s') *)
let table2_mac =
  [
    (1, 2, 3, 3, 1);
    (2, 2, 2, 5, 1);
    (3, 1, 1, 2, 0);
    (4, 1, 1, 2, 0);
    (6, 1, 1, 2, 0);
    (7, 8, 8, 9, 1);
    (8, 21, 15, 15, 6);
    (9, 9, 8, 10, 1);
    (10, 9, 0, 10, 10);
    (12, 1, 0, 2, 1);
  ]

let test_table2_mac_counts () =
  List.iter
    (fun (id, fa, fm, l, s) ->
      let c = compile id in
      let adds =
        vclass_count Instr.Cadd c + vclass_count Instr.Csub c
        + vclass_count Instr.Csum c
      in
      let muls = vclass_count Instr.Cmul c + vclass_count Instr.Cdiv c in
      Alcotest.(check int) (Printf.sprintf "lfk%d f_a'" id) fa adds;
      Alcotest.(check int) (Printf.sprintf "lfk%d f_m'" id) fm muls;
      Alcotest.(check int) (Printf.sprintf "lfk%d l'" id) l
        (vclass_count Instr.Cld c);
      Alcotest.(check int) (Printf.sprintf "lfk%d s'" id) s
        (vclass_count Instr.Cst c))
    table2_mac

let test_lfk1_schedule_matches_paper () =
  (* the paper's LFK1 listing interleaves loads with their consumers:
     ld mul ld mul add ld mul add st *)
  let c = compile 1 in
  let shape =
    List.filter_map
      (fun i ->
        match Instr.vclass_of i with
        | Some Instr.Cld -> Some "ld"
        | Some Instr.Cst -> Some "st"
        | Some Instr.Cadd -> Some "add"
        | Some Instr.Cmul -> Some "mul"
        | _ -> None)
      (Program.body c.program)
  in
  Alcotest.(check (list string)) "schedule"
    [ "ld"; "mul"; "ld"; "mul"; "add"; "ld"; "mul"; "add"; "st" ]
    shape

let test_body_structure () =
  let c = compile 1 in
  (match Program.body c.program with
  | Instr.Smovvl :: _ -> ()
  | _ -> Alcotest.fail "body must start with smovvl");
  match List.rev (Program.body c.program) with
  | Instr.Sbranch :: _ -> ()
  | _ -> Alcotest.fail "body must end with the loop branch"

let test_valid_register_usage () =
  (* every register index is produced through Reg smart constructors, so
     check a structural invariant instead: no instruction reads a vector
     register that is neither live-in nor written earlier *)
  List.iter
    (fun (k : Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      let written = Hashtbl.create 8 in
      List.iter
        (fun i ->
          List.iter
            (fun r' ->
              if not (Hashtbl.mem written (Reg.v_index r')) then
                Alcotest.failf "%s: reads v%d before any write" k.name
                  (Reg.v_index r'))
            (Instr.reads_v i);
          List.iter
            (fun r' -> Hashtbl.replace written (Reg.v_index r') ())
            (Instr.writes_v i))
        (Program.body c.program))
    Kernels.all

let test_scalar_spilling_lfk8 () =
  let c = compile 8 in
  Alcotest.(check bool) "spills exist" true (c.spilled_scalars <> []);
  let reloads = count_instr Instr.is_scalar_memory c in
  Alcotest.(check int) "one reload per spilled scalar"
    (List.length c.spilled_scalars)
    reloads;
  (* spilled scalars are the coldest ones: sig and two (3 uses each) stay
     in registers *)
  Alcotest.(check bool) "sig kept" true
    (not (List.mem "sig" c.spilled_scalars));
  Alcotest.(check bool) "two kept" true
    (not (List.mem "two" c.spilled_scalars))

let test_no_spills_elsewhere () =
  List.iter
    (fun id ->
      let c = compile id in
      Alcotest.(check (list string))
        (Printf.sprintf "lfk%d no spills" id)
        [] c.spilled_scalars)
    [ 1; 2; 3; 4; 6; 7; 9; 10; 12 ]

let test_reduction_lowering () =
  let c = compile 3 in
  Alcotest.(check int) "one vsum" 1 (vclass_count Instr.Csum c);
  let has_acc =
    count_instr (function Instr.Sbin { op = Add; _ } -> true | _ -> false) c
  in
  Alcotest.(check int) "scalar accumulate" 1 has_acc;
  (* lfk4 subtracts *)
  let c4 = compile 4 in
  Alcotest.(check int) "lfk4 subtract accumulate" 1
    (count_instr (function Instr.Sbin { op = Sub; _ } -> true | _ -> false) c4)

let test_segment_protocol () =
  (* lfk4: prologue loads the accumulator, epilogue scales and stores *)
  let c = compile 4 in
  match c.job.Convex_vpsim.Job.segments with
  | seg :: _ ->
      Alcotest.(check bool) "prologue has sld" true
        (List.exists
           (function Instr.Sld _ -> true | _ -> false)
           seg.prologue);
      Alcotest.(check bool) "epilogue multiplies" true
        (List.exists
           (function Instr.Sbin { op = Mul; _ } -> true | _ -> false)
           seg.epilogue);
      Alcotest.(check bool) "epilogue stores" true
        (List.exists (function Instr.Sst _ -> true | _ -> false) seg.epilogue)
  | [] -> Alcotest.fail "no segments"

let test_zero_init_protocol () =
  (* lfk3 zero-initialises the accumulator with acc - acc *)
  let c = compile 3 in
  match c.job.Convex_vpsim.Job.segments with
  | seg :: _ ->
      Alcotest.(check bool) "sub self" true
        (List.exists
           (function
             | Instr.Sbin { op = Sub; dst; src1; src2 } ->
                 Reg.equal_s dst src1 && Reg.equal_s src1 src2
             | _ -> false)
           seg.prologue)
  | [] -> Alcotest.fail "no segments"

let test_outer_ops_emitted () =
  let c = compile 2 in
  match c.job.Convex_vpsim.Job.segments with
  | seg :: _ ->
      Alcotest.(check int) "10 outer ops" 10
        (List.length
           (List.filter (function Instr.Sop _ -> true | _ -> false)
              seg.prologue))
  | [] -> Alcotest.fail "no segments"

(* ---- optimization levels ---- *)

let test_ideal_reuse_matches_ma () =
  (* under ideal stream reuse the compiled load count equals the MA count *)
  List.iter
    (fun (k : Kernel.t) ->
      let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.ideal k in
      Alcotest.(check int)
        (Printf.sprintf "%s ideal loads" k.name)
        (Ir.ma_load_count k.body)
        (vclass_count Instr.Cld c))
    Kernels.all

let test_loads_first_hoists () =
  let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.loads_first (Kernels.find 1) in
  (* with hoisting, the first instructions after smovvl are loads *)
  match Program.vector_instrs c.program with
  | a :: b :: _ ->
      Alcotest.(check bool) "first two are loads" true
        (Instr.is_vector_memory a && Instr.is_vector_memory b)
  | _ -> Alcotest.fail "too few vector instructions"

let test_opt_level_names () =
  Alcotest.(check string) "v61" "v61" (Fcc.Opt_level.name Fcc.Opt_level.v61);
  Alcotest.(check string) "ideal" "ideal"
    (Fcc.Opt_level.name Fcc.Opt_level.ideal);
  Alcotest.(check bool) "v61 functional" true
    (Fcc.Opt_level.functional Fcc.Opt_level.v61);
  Alcotest.(check bool) "ideal not functional" false
    (Fcc.Opt_level.functional Fcc.Opt_level.ideal)

let test_run_interp_rejects_ideal () =
  let c = Fcc.Compiler.compile ~opt:Fcc.Opt_level.ideal (Kernels.find 1) in
  Alcotest.check_raises "not functional"
    (Invalid_argument
       "Compiler.run_interp: optimization level is not functional")
    (fun () -> ignore (Fcc.Compiler.run_interp c))

(* ---- functional equivalence with the references ---- *)

let max_rel_error (k : Kernel.t) =
  let c = Fcc.Compiler.compile k in
  let got = Fcc.Compiler.run_interp c in
  let want = Data.store_of k in
  Reference.run k want;
  let worst = ref 0.0 in
  List.iter
    (fun name ->
      let g = Convex_vpsim.Store.get got name in
      let w = Convex_vpsim.Store.get want name in
      Array.iteri
        (fun i wv ->
          let d = Float.abs (g.(i) -. wv) /. (Float.abs wv +. 1e-12) in
          if d > !worst then worst := d)
        w)
    (Reference.output_arrays k);
  !worst

let test_functional_equivalence () =
  List.iter
    (fun (k : Kernel.t) ->
      let err = max_rel_error k in
      if err > 1e-9 then
        Alcotest.failf "%s: max relative error %.2e" k.name err)
    Kernels.all

let test_listing_parses_back () =
  List.iter
    (fun (k : Kernel.t) ->
      let c = Fcc.Compiler.compile k in
      match Asm.parse_program (Fcc.Compiler.listing c) with
      | Ok p ->
          Alcotest.(check bool)
            (k.name ^ " roundtrip")
            true
            (Program.equal p c.program)
      | Error e -> Alcotest.failf "%s: %s" k.name e)
    Kernels.all

let test_initial_store_has_pool () =
  let c = compile 8 in
  let store = Fcc.Compiler.initial_store c in
  let pool = Convex_vpsim.Store.get store "SCAL" in
  Alcotest.(check int) "pool size" (List.length c.spilled_scalars)
    (Array.length pool);
  (* pool values are the spilled scalars' values *)
  List.iteri
    (fun i name ->
      Alcotest.(check (float 1e-12)) name
        (List.assoc name c.kernel.Kernel.scalars)
        pool.(i))
    c.spilled_scalars

let test_invalid_kernel_rejected () =
  let bad =
    { (Kernels.find 1) with Kernel.scalars = [] (* q, r, t now unbound *) }
  in
  try
    ignore (Fcc.Compiler.compile bad);
    Alcotest.fail "invalid kernel accepted"
  with Invalid_argument _ -> ()

(* ---- qcheck ---- *)

let prop_random_kernels_compile_and_run =
  QCheck.Test.make ~count:150 ~name:"random kernels compile and interpret"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let c = Fcc.Compiler.compile k in
      let store = Fcc.Compiler.run_interp c in
      let out = Convex_vpsim.Store.get store "OUT" in
      Array.for_all (fun x -> Float.is_finite x) out)

let prop_compiled_flops_match_ir =
  QCheck.Test.make ~count:150 ~name:"compiled FP ops = IR flops"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let c = Fcc.Compiler.compile k in
      let fp =
        Program.count Instr.is_vector_fp c.Fcc.Compiler.program
        - Program.count
            (function Instr.Vneg _ -> true | _ -> false)
            c.Fcc.Compiler.program
      in
      fp = Ir.flops k.Kernel.body)

let prop_writes_before_reads =
  QCheck.Test.make ~count:150 ~name:"no vector register read before write"
    Convex_fuzz.Gen.kernel_arbitrary (fun k ->
      let c = Fcc.Compiler.compile k in
      let p = Program.make ~name:"x" (Program.body c.program) in
      Program.live_in_v p = [])

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_kernels_compile_and_run; prop_compiled_flops_match_ir;
      prop_writes_before_reads;
    ]

(* ---- the compile memo ---- *)

(* Every (LFK, opt record, force_scalar) the memo holds a slot for. *)
let memo_cases =
  let opts =
    List.concat_map
      (fun reuse ->
        List.map
          (fun schedule -> { Fcc.Opt_level.reuse; schedule })
          Fcc.Opt_level.[ Depth_first; Loads_first; Packed ])
      Fcc.Opt_level.[ Reload_shifted; Stream_reuse ]
  in
  List.concat_map
    (fun id ->
      List.concat_map
        (fun opt -> [ (id, opt, false); (id, opt, true) ])
        opts)
    (List.init 12 (fun i -> i + 1))

(* What a compile produced, everything but the kernel record itself, or
   the exception it raised. *)
let compiled_view f =
  match f () with
  | (c : Fcc.Compiler.t) ->
      Ok
        ( Fcc.Compiler.listing c,
          c.job,
          c.sregs,
          c.flops_per_iteration,
          c.scalar_map,
          c.spilled_scalars )
  | exception e -> Error (Printexc.to_string e)

let codec_copy k =
  match Codec.of_string (Codec.to_string k) with
  | Ok k' -> k'
  | Error e -> Alcotest.failf "codec round trip of %s: %s" k.Kernel.name e

let library ((id, opt, force_scalar) : int * Fcc.Opt_level.t * bool) () =
  Fcc.Compiler.compile ~opt ~force_scalar (Kernels.find id)

let case_label (id, opt, force_scalar) =
  Printf.sprintf "lfk%d %s%s" id (Fcc.Opt_level.name opt)
    (if force_scalar then " scalar" else "")

(* The same compile of a Codec copy, which the memo never holds. *)
let fresh ((id, opt, force_scalar) : int * Fcc.Opt_level.t * bool) () =
  Fcc.Compiler.compile ~opt ~force_scalar (codec_copy (Kernels.find id))

(* Runs first in this executable, so these are the memo's first
   compiles: four domains fill every slot at once, in different orders,
   and must all see the values a fresh compile gives. *)
let test_memo_first_compiles_race () =
  let cases = Array.of_list memo_cases in
  let n = Array.length cases in
  let views =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            Array.init n (fun i ->
                let case = cases.((i + (d * n / 4)) mod n) in
                (case, compiled_view (library case)))))
    |> List.map Domain.join
  in
  let sorted v =
    let v = Array.copy v in
    Array.sort compare v;
    v
  in
  match List.map sorted views with
  | first :: rest ->
      List.iteri
        (fun d v ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d sees domain 0's compiles" (d + 1))
            true (v = first))
        rest;
      Array.iter
        (fun (case, view) ->
          Alcotest.(check bool)
            (case_label case ^ " equals a fresh compile")
            true
            (view = compiled_view (fresh case)))
        first
  | [] -> assert false

(* A library kernel compiles once: a memo hit is the same value.  A
   Codec copy of it compiles fresh every time, to the same listing, job,
   scalar registers, flops, scalar map and spills, or to the same
   exception (LFK8 has too many scalars for forced scalar code). *)
let test_memo_equals_fresh_compile () =
  List.iter
    (fun case ->
      let label = case_label case in
      Alcotest.(check bool) (label ^ ": memo = fresh") true
        (compiled_view (library case) = compiled_view (fresh case));
      match (library case (), library case (), fresh case (), fresh case ()) with
      | a, b, x, y ->
          Alcotest.(check bool) (label ^ ": hit is the same value") true
            (a == b);
          Alcotest.(check bool) (label ^ ": a copy compiles fresh") true
            (x != y && x != a)
      | exception _ ->
          (* both raised alike, checked above; nothing was memoized *)
          ())
    memo_cases

let () =
  Alcotest.run "fcc"
    [
      ( "memo",
        [
          Alcotest.test_case "first compiles race" `Quick
            test_memo_first_compiles_race;
          Alcotest.test_case "memo = fresh compile" `Quick
            test_memo_equals_fresh_compile;
        ] );
      ( "counts",
        [
          Alcotest.test_case "Table 2 MAC counts" `Quick
            test_table2_mac_counts;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "lfk1 matches paper" `Quick
            test_lfk1_schedule_matches_paper;
          Alcotest.test_case "body structure" `Quick test_body_structure;
          Alcotest.test_case "register discipline" `Quick
            test_valid_register_usage;
        ] );
      ( "scalars",
        [
          Alcotest.test_case "lfk8 spills" `Quick test_scalar_spilling_lfk8;
          Alcotest.test_case "others do not" `Quick test_no_spills_elsewhere;
          Alcotest.test_case "constant pool" `Quick
            test_initial_store_has_pool;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "lowering" `Quick test_reduction_lowering;
          Alcotest.test_case "segment protocol" `Quick test_segment_protocol;
          Alcotest.test_case "zero init" `Quick test_zero_init_protocol;
          Alcotest.test_case "outer ops" `Quick test_outer_ops_emitted;
        ] );
      ( "opt-levels",
        [
          Alcotest.test_case "ideal reuse = MA loads" `Quick
            test_ideal_reuse_matches_ma;
          Alcotest.test_case "loads-first hoists" `Quick
            test_loads_first_hoists;
          Alcotest.test_case "names and functionality" `Quick
            test_opt_level_names;
          Alcotest.test_case "interp rejects ideal" `Quick
            test_run_interp_rejects_ideal;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "all kernels match references" `Quick
            test_functional_equivalence;
          Alcotest.test_case "listings parse back" `Quick
            test_listing_parses_back;
          Alcotest.test_case "invalid kernel rejected" `Quick
            test_invalid_kernel_rejected;
        ] );
      ("properties", qcheck_tests);
    ]
