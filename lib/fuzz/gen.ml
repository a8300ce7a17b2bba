(* Seedable random generators for the differential fuzzer and the shared
   QCheck test properties. *)

open Convex_isa
module Ir = Lfk.Ir
module Kernel = Lfk.Kernel

(* ------------------------------------------------------------------ *)
(* Instruction-level generators (promoted from the test suite)         *)
(* ------------------------------------------------------------------ *)

let vreg_gen = QCheck.Gen.map Reg.v (QCheck.Gen.int_range 0 7)
let sreg_gen = QCheck.Gen.map Reg.s (QCheck.Gen.int_range 0 7)

let mem_gen : Instr.mem QCheck.Gen.t =
  let open QCheck.Gen in
  let* array = oneofl [ "A"; "B"; "C" ] in
  let* offset = int_range 0 16 in
  let* stride = oneofl [ 1; 1; 1; 2; 5 ] in
  return { Instr.array; offset; stride }

let vsrc_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun r -> Instr.Vr r) vreg_gen;
      map (fun r -> Instr.Sr r) sreg_gen;
    ]

let vbinop_gen =
  (* divides are rare, as in real code, to keep simulated times small *)
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.return Instr.Add);
      (3, QCheck.Gen.return Instr.Sub);
      (4, QCheck.Gen.return Instr.Mul);
      (1, QCheck.Gen.return Instr.Div);
    ]

let vector_instr_gen : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (3, map2 (fun dst src -> Instr.Vld { dst; src }) vreg_gen mem_gen);
      (2, map2 (fun src dst -> Instr.Vst { src; dst }) vreg_gen mem_gen);
      ( 5,
        let* op = vbinop_gen in
        let* dst = vreg_gen in
        let* src1 = vsrc_gen in
        let* src2 = vsrc_gen in
        return (Instr.Vbin { op; dst; src1; src2 }) );
      (1, map2 (fun dst src -> Instr.Vneg { dst; src }) vreg_gen vreg_gen);
      (1, map2 (fun dst src -> Instr.Vsqrt { dst; src }) vreg_gen vreg_gen);
      ( 1,
        let* dst = vreg_gen in
        let* base = mem_gen in
        let* index = vreg_gen in
        return (Instr.Vgather { dst; base; index }) );
      ( 1,
        let* src = vreg_gen in
        let* base = mem_gen in
        let* index = vreg_gen in
        return (Instr.Vscatter { src; base; index }) );
      ( 1,
        let* op = oneofl [ Instr.Lt; Instr.Le; Instr.Eq; Instr.Ne ] in
        let* src1 = vreg_gen in
        let* src2 = vsrc_gen in
        return (Instr.Vcmp { op; src1; src2 }) );
      ( 1,
        let* dst = vreg_gen in
        let* src_true = vsrc_gen in
        let* src_false = vsrc_gen in
        return (Instr.Vmerge { dst; src_true; src_false }) );
      (1, map2 (fun dst src -> Instr.Vsum { dst; src }) sreg_gen vreg_gen);
    ]

let scalar_instr_gen : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (2, map2 (fun dst src -> Instr.Sld { dst; src }) sreg_gen mem_gen);
      (1, map2 (fun src dst -> Instr.Sst { src; dst }) sreg_gen mem_gen);
      ( 2,
        let* op = vbinop_gen in
        let* dst = sreg_gen in
        let* src1 = sreg_gen in
        let* src2 = sreg_gen in
        return (Instr.Sbin { op; dst; src1; src2 }) );
      (2, map (fun name -> Instr.Sop { name }) (oneofl [ "add.a"; "lt.s" ]));
      (1, return Instr.Smovvl);
      (1, return Instr.Sbranch);
    ]

let instr_gen =
  QCheck.Gen.frequency [ (4, vector_instr_gen); (1, scalar_instr_gen) ]

let body_gen =
  QCheck.Gen.(list_size (int_range 1 14) instr_gen)

let vector_body_gen =
  QCheck.Gen.(list_size (int_range 1 12) vector_instr_gen)

let instr_arbitrary = QCheck.make ~print:Instr.show instr_gen

let body_arbitrary =
  QCheck.make
    ~print:(fun is -> String.concat "\n" (List.map Instr.show is))
    body_gen

let vector_body_arbitrary =
  QCheck.make
    ~print:(fun is -> String.concat "\n" (List.map Instr.show is))
    vector_body_gen

(* ------------------------------------------------------------------ *)
(* Simple random loop-IR kernels for compiler round trips              *)
(* ------------------------------------------------------------------ *)

let expr_gen ~depth : Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let ref_gen =
    let* array = oneofl [ "P"; "Q"; "R" ] in
    let* offset = int_range 0 4 in
    return { Ir.array; scale = 1; offset }
  in
  let leaf =
    frequency
      [
        (4, map (fun r -> Ir.Load r) ref_gen);
        (1, map (fun s -> Ir.Scalar s) (oneofl [ "c1"; "c2" ]));
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              let* a = self (depth - 1) in
              let* b = self (depth - 1) in
              oneofl
                [ Ir.Add (a, b); Ir.Sub (a, b); Ir.Mul (a, b) ]
            );
          ])
    depth

let rec has_load = function
  | Ir.Load _ -> true
  | Ir.Scalar _ | Ir.Temp _ -> false
  | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b)
  | Ir.Div (a, b) ->
      has_load a || has_load b
  | Ir.Neg a | Ir.Sqrt a -> has_load a
  | Ir.Gather { index; _ } -> has_load index
  | Ir.Select { a; b; if_true; if_false; _ } ->
      has_load a || has_load b || has_load if_true || has_load if_false

let kernel_gen : Kernel.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* e0 = expr_gen ~depth:3 in
  (* the compiler stores vector values; anchor scalar-only expressions on
     a load so the store is vector-valued *)
  let e =
    if has_load e0 then e0
    else Ir.Mul (e0, Ir.Load { array = "P"; scale = 1; offset = 0 })
  in
  let* n = int_range 5 300 in
  return
    {
      Kernel.id = 999;
      name = "random";
      description = "generated";
      fortran = "";
      body = [ Ir.Store ({ array = "OUT"; scale = 1; offset = 0 }, e) ];
      acc = None;
      scalars = [ ("c1", 0.5); ("c2", 0.25) ];
      arrays = [ ("P", 512); ("Q", 512); ("R", 512); ("OUT", 512) ];
      aliases = [];
      segments = [ { base = 0; length = n; shifts = [] } ];
      outer_ops = 0;
    }

let kernel_arbitrary =
  QCheck.make
    ~print:(fun (k : Kernel.t) ->
      String.concat "\n" (List.map Ir.show_stmt k.body))
    kernel_gen

(* ------------------------------------------------------------------ *)
(* Fuzzer-grade kernels                                                *)
(* ------------------------------------------------------------------ *)

(* Unit, small primes and powers of two up to 32: the strides that alias
   memory banks and defeat tailgating. *)
let adversarial_strides = [ 1; 1; 1; 1; 2; 3; 4; 5; 7; 8; 16; 32 ]

(* Clustered around the strip-mine boundaries (1..4, 31..33, 63..65,
   127..130, 255..257), plus a long tail. *)
let edge_lengths =
  [ 1; 2; 3; 4; 31; 32; 33; 63; 64; 65; 127; 128; 129; 130; 255; 256; 257;
    300 ]

type profile = Vector_profile | Scalar_profile

(* Disjoint array pools: loads and stores never touch the same array, so
   generated vector kernels carry no loop-carried dependence, statement-
   at-a-time strip semantics equals element-at-a-time semantics, and the
   compiler's load cache is numerically invisible.  The loop-carried
   scalar profile breaks this deliberately through REC. *)
let load_pool = [ "P"; "Q"; "R"; "U"; "V" ]
let out_pool = [ "OUT0"; "OUT1"; "OUT2" ]
let gather_pool = [ ("GD0", "IDXA"); ("GD1", "IDXB") ]
let scatter_target = ("SC0", "IDXS")
let scalar_pool = [ "c0"; "c1"; "c2"; "c3" ]
let idx_range = 1024 (* Lfk.Data: IDX* arrays hold integers in [0;1024) *)

let load_ref_gen =
  let open QCheck.Gen in
  let* array = oneofl load_pool in
  let* scale = oneofl adversarial_strides in
  let* offset = int_range 0 4 in
  return { Ir.array; scale; offset }

let scalar_name_gen = QCheck.Gen.oneofl scalar_pool

(* Vector-valued expressions.  [select_ok] bans nesting a Select inside
   any operand of another Select: the compiled comparison writes the one
   vector-merge mask, so a nested select between a cmp and its merge
   would clobber it — the generator stays inside the compilable subset. *)
let rec vexpr ~temps ~select_ok depth st =
  let open QCheck.Gen in
  let leaf =
    match temps with
    | [] -> map (fun r -> Ir.Load r) load_ref_gen
    | ts ->
        frequency
          [
            (4, map (fun r -> Ir.Load r) load_ref_gen);
            (1, map (fun t -> Ir.Temp t) (oneofl ts));
          ]
  in
  if depth <= 0 then leaf st
  else
    let bin =
      let* op =
        frequency
          [
            (4, return `Add); (3, return `Sub); (4, return `Mul);
            (1, return `Div);
          ]
      in
      let* a = vexpr ~temps ~select_ok (depth - 1) in
      match op with
      | `Div ->
          (* denominators are positive-definite leaves (raw loads or
             scalar constants), so division never manufactures inf/NaN *)
          let* d =
            frequency
              [
                (2, map (fun r -> Ir.Load r) load_ref_gen);
                (1, map (fun s -> Ir.Scalar s) scalar_name_gen);
              ]
          in
          return (Ir.Div (a, d))
      | (`Add | `Sub | `Mul) as op ->
          let* b = operand ~temps ~select_ok (depth - 1) in
          let* swap = bool in
          (* a is vector-valued; either side of the node may be scalar *)
          let x, y = if swap then (b, a) else (a, b) in
          return
            (match op with
            | `Add -> Ir.Add (x, y)
            | `Sub -> Ir.Sub (x, y)
            | `Mul -> Ir.Mul (x, y))
    in
    let gather =
      let* (array, idx) = oneofl gather_pool in
      let* offset = int_range 0 4 in
      let* idx_off = int_range 0 2 in
      return
        (Ir.Gather
           {
             array;
             offset;
             index = Ir.Load { Ir.array = idx; scale = 1; offset = idx_off };
           })
    in
    let select =
      let* op = oneofl [ Ir.CLt; Ir.CLe; Ir.CEq; Ir.CNe ] in
      let* a = vexpr ~temps ~select_ok:false (depth - 1) in
      let* b = operand ~temps ~select_ok:false (depth - 1) in
      let* if_true = operand ~temps ~select_ok:false (depth - 1) in
      let* if_false = operand ~temps ~select_ok:false (depth - 1) in
      return (Ir.Select { op; a; b; if_true; if_false })
    in
    frequency
      ([
         (3, leaf);
         (4, bin);
         (1, map (fun e -> Ir.Neg e) (vexpr ~temps ~select_ok (depth - 1)));
         (1, map (fun e -> Ir.Sqrt e) (vexpr ~temps ~select_ok (depth - 1)));
         (1, gather);
       ]
      @ if select_ok then [ (1, select) ] else [])
      st

(* operand: vector- or scalar-valued *)
and operand ~temps ~select_ok depth st =
  QCheck.Gen.frequency
    [
      (3, vexpr ~temps ~select_ok depth);
      (1, QCheck.Gen.map (fun s -> Ir.Scalar s) scalar_name_gen);
    ]
    st

(* Scalar-mode expressions: no Gather/Select/Sqrt (the scalar lowerer
   rejects them) and no Neg (the scalar lowerer materialises its zero by
   subtracting a stale scratch register from itself, which is only
   value-equal to [0 - a] while every intermediate stays finite — a
   recurrence can overflow).  Div denominators are positive leaves for
   the same reason as the vector profile.  Shallow, to stay inside the
   eight s-registers. *)
let rec sexpr ~rec_arrays depth st =
  let open QCheck.Gen in
  (* two names only: each register-resident scalar plus the accumulator
     eats into the eight s-registers the expression tree also needs *)
  let sname = oneofl [ "c0"; "c1" ] in
  let leaf =
    frequency
      [
        (3, map (fun r -> Ir.Load r) load_ref_gen);
        ( 2,
          let* array = oneofl rec_arrays in
          return (Ir.Load { Ir.array; scale = 1; offset = 0 }) );
        (1, map (fun s -> Ir.Scalar s) sname);
      ]
  in
  if depth <= 0 then leaf st
  else
    frequency
      [
        (2, leaf);
        ( 4,
          let* a = sexpr ~rec_arrays (depth - 1) in
          frequency
            [
              ( 4,
                let* b = sexpr ~rec_arrays (depth - 1) in
                return (Ir.Add (a, b)) );
              ( 3,
                let* b = sexpr ~rec_arrays (depth - 1) in
                return (Ir.Sub (a, b)) );
              ( 4,
                let* b = sexpr ~rec_arrays (depth - 1) in
                return (Ir.Mul (a, b)) );
              ( 1,
                let* d =
                  frequency
                    [
                      (2, map (fun r -> Ir.Load r) load_ref_gen);
                      (1, map (fun s -> Ir.Scalar s) sname);
                    ]
                in
                return (Ir.Div (a, d)) );
            ] );
      ]
      st

(* ---- sizing ---- *)

let min_array_sizes (k : Kernel.t) =
  let sizes = Hashtbl.create 16 in
  let need array n =
    let cur = Option.value ~default:0 (Hashtbl.find_opt sizes array) in
    if n > cur then Hashtbl.replace sizes array n
  in
  let affine (r : Ir.ref_) =
    List.iter
      (fun (s : Kernel.segment_spec) ->
        let shift =
          Option.value ~default:0 (List.assoc_opt r.array s.shifts)
        in
        let lo = shift + r.offset + (s.base * r.scale) in
        let hi = shift + r.offset + ((s.base + s.length - 1) * r.scale) in
        need r.array (1 + max lo hi))
      k.segments
  in
  let indexed array offset = need array (idx_range + offset) in
  let rec expr = function
    | Ir.Load r -> affine r
    | Ir.Scalar _ | Ir.Temp _ -> ()
    | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
        expr a;
        expr b
    | Ir.Neg a | Ir.Sqrt a -> expr a
    | Ir.Gather { array; offset; index } ->
        indexed array offset;
        expr index
    | Ir.Select { a; b; if_true; if_false; _ } ->
        expr a;
        expr b;
        expr if_true;
        expr if_false
  in
  List.iter
    (function
      | Ir.Let (_, e) -> expr e
      | Ir.Store (r, e) ->
          affine r;
          expr e
      | Ir.Scatter { array; offset; index; value } ->
          indexed array offset;
          expr index;
          expr value
      | Ir.Reduce { rhs; _ } -> expr rhs)
    k.body;
  (match k.acc with
  | None -> ()
  | Some spec ->
      (match spec.init with
      | Kernel.Zero -> ()
      | Kernel.Load_from r -> affine r);
      (match spec.store_to with None -> () | Some r -> affine r));
  Hashtbl.fold (fun a n acc -> (a, n) :: acc) sizes []
  |> List.sort compare

(* ---- kernel assembly ---- *)

let scalar_value_gen =
  QCheck.Gen.map (fun i -> 0.25 +. (0.125 *. float_of_int i))
    (QCheck.Gen.int_range 0 30)

let segments_gen ~min_length ~allow_shifts =
  let open QCheck.Gen in
  let lengths = List.filter (fun n -> n >= min_length) edge_lengths in
  let seg =
    let* length = oneofl lengths in
    let* base = frequency [ (3, return 0); (1, int_range 1 2) ] in
    let* shifts =
      if not allow_shifts then return []
      else
        frequency
          [
            (3, return []);
            ( 1,
              let* a = oneofl load_pool in
              let* s = int_range 1 8 in
              return [ (a, s) ] );
          ]
    in
    return { Kernel.base; length; shifts }
  in
  list_size (int_range 1 3) seg

let finish ~name ~body ~acc ~segments ~outer_ops =
  let used_scalars =
    let from_body = Ir.scalars body in
    match acc with
    | Some { Kernel.scale_by = Some s; _ } when not (List.mem s from_body) ->
        from_body @ [ s ]
    | _ -> from_body
  in
  QCheck.Gen.map
    (fun values ->
      let k0 =
        {
          Kernel.id = 999;
          name;
          description = "fuzz-generated";
          fortran = "";
          body;
          acc;
          scalars = List.combine used_scalars values;
          arrays = [];
          aliases = [];
          segments;
          outer_ops;
        }
      in
      { k0 with arrays = min_array_sizes k0 })
    (QCheck.Gen.list_repeat (List.length used_scalars) scalar_value_gen)

let vector_kernel_gen : Kernel.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_lets = frequency [ (3, return 0); (2, return 1); (1, return 2) ] in
  (* temps bind in order; each Let may use earlier temps *)
  let rec gen_lets i temps acc =
    if i >= n_lets then return (List.rev acc, temps)
    else
      let t = Printf.sprintf "t%d" i in
      let* e = vexpr ~temps ~select_ok:true 2 in
      gen_lets (i + 1) (t :: temps) (Ir.Let (t, e) :: acc)
  in
  let* lets, temps = gen_lets 0 [] [] in
  let* e1 = vexpr ~temps ~select_ok:true 3 in
  let store1 = Ir.Store ({ Ir.array = "OUT0"; scale = 1; offset = 0 }, e1) in
  let* with_scatter = frequency [ (3, return false); (1, return true) ] in
  let* scatter =
    if not with_scatter then return []
    else
      let array, idx = scatter_target in
      let* offset = int_range 0 4 in
      let* value = vexpr ~temps ~select_ok:false 2 in
      return
        [
          Ir.Scatter
            {
              array;
              offset;
              index = Ir.Load { Ir.array = idx; scale = 1; offset = 0 };
              value;
            };
        ]
  in
  let* with_reduce = frequency [ (2, return false); (1, return true) ] in
  let* reduce, acc =
    if not with_reduce then return ([], None)
    else
      let* neg = bool in
      let* rhs = vexpr ~temps ~select_ok:false 2 in
      let* init =
        frequency
          [
            (2, return Kernel.Zero);
            ( 1,
              let* array = oneofl load_pool in
              let* offset = int_range 0 4 in
              return (Kernel.Load_from { Ir.array; scale = 0; offset }) );
          ]
      in
      let* scale_by =
        frequency
          [ (2, return None); (1, map (fun s -> Some s) scalar_name_gen) ]
      in
      let* store_to =
        frequency
          [
            (1, return None);
            ( 2,
              let* offset = int_range 0 2 in
              return (Some { Ir.array = "ACCOUT"; scale = 0; offset }) );
          ]
      in
      return
        ( [ Ir.Reduce { neg; rhs } ],
          Some { Kernel.init; scale_by; store_to } )
  in
  let* with_store2 = frequency [ (2, return false); (1, return true) ] in
  let* store2 =
    if not with_store2 then return []
    else
      let* out = oneofl (List.tl out_pool) in
      let* scale = oneofl adversarial_strides in
      let* offset = int_range 0 2 in
      let* e = vexpr ~temps ~select_ok:false 2 in
      return [ Ir.Store ({ Ir.array = out; scale; offset }, e) ]
  in
  let body = lets @ [ store1 ] @ scatter @ reduce @ store2 in
  let* segments = segments_gen ~min_length:1 ~allow_shifts:true in
  let* outer_ops = frequency [ (3, return 0); (1, int_range 1 4) ] in
  finish ~name:"fuzz-vec" ~body ~acc ~segments ~outer_ops

let scalar_kernel_gen : Kernel.t QCheck.Gen.t =
  let open QCheck.Gen in
  let rec_arrays = [ "REC" ] in
  let* sub = sexpr ~rec_arrays 2 in
  (* the carried dependence: REC(k+1) := f(REC(k), ...) *)
  let* op =
    frequency
      [ (4, return `Add); (2, return `Sub); (4, return `Mul) ]
  in
  let carried = Ir.Load { Ir.array = "REC"; scale = 1; offset = 0 } in
  let e =
    match op with
    | `Add -> Ir.Add (carried, sub)
    | `Sub -> Ir.Sub (carried, sub)
    | `Mul -> Ir.Mul (carried, sub)
  in
  let store = Ir.Store ({ Ir.array = "REC"; scale = 1; offset = 1 }, e) in
  let* with_reduce = frequency [ (2, return false); (1, return true) ] in
  let* reduce, acc =
    if not with_reduce then return ([], None)
    else
      let* neg = bool in
      let* rhs = sexpr ~rec_arrays 1 in
      let* store_to =
        frequency
          [
            (1, return None);
            (2, return (Some { Ir.array = "ACCOUT"; scale = 0; offset = 0 }));
          ]
      in
      return
        ( [ Ir.Reduce { neg; rhs } ],
          Some { Kernel.init = Kernel.Zero; scale_by = None; store_to } )
  in
  let body = [ store ] @ reduce in
  let* segments = segments_gen ~min_length:2 ~allow_shifts:false in
  finish ~name:"fuzz-rec" ~body ~acc ~segments ~outer_ops:0

let fuzz_kernel_gen = function
  | Vector_profile -> vector_kernel_gen
  | Scalar_profile -> scalar_kernel_gen

let print_kernel (k : Kernel.t) =
  Printf.sprintf "%s\nsegments: %s\narrays: %s"
    (String.concat "\n" (List.map Ir.show_stmt k.body))
    (String.concat "; "
       (List.map
          (fun (s : Kernel.segment_spec) ->
            Printf.sprintf "base=%d len=%d" s.base s.length)
          k.segments))
    (String.concat ", "
       (List.map (fun (a, n) -> Printf.sprintf "%s[%d]" a n) k.arrays))

let fuzz_kernel_arbitrary profile =
  QCheck.make ~print:print_kernel (fuzz_kernel_gen profile)

(* ------------------------------------------------------------------ *)
(* Assembly round-trip fuzz input                                      *)
(* ------------------------------------------------------------------ *)

(* Names that stress the listing grammar: spaces, commas, semicolons,
   percent signs, and the empty name. *)
let adversarial_sop_names =
  [
    "add.a"; "lt.s"; "outer"; ""; "add a"; "a,b"; "x;y"; "100%"; "%20";
    "spaced  twice";
  ]

let program_gen : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let sop = map (fun name -> Instr.Sop { name }) (oneofl adversarial_sop_names) in
  let* body =
    list_size (int_range 1 10)
      (frequency [ (4, instr_gen); (2, sop) ])
  in
  return (Program.make ~name:"fuzz" body)
