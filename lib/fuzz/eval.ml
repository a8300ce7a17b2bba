module Ir = Lfk.Ir
module Kernel = Lfk.Kernel
module Store = Convex_vpsim.Store
module Job = Convex_vpsim.Job

exception Fault of Macs_util.Macs_error.t

let errorf fmt =
  Printf.ksprintf
    (fun s ->
      raise (Fault (Macs_util.Macs_error.interp_fault ~site:"Eval.run" s)))
    fmt

(* the C-240 vector length, as Convex_vpsim.Interp strip-mines *)
let max_vl = 128

let run_raw ~mode ~store (k : Kernel.t) =
  let scalar name =
    match List.assoc_opt name k.scalars with
    | Some v -> v
    | None -> errorf "Eval: unknown scalar %s" name
  in
  let array name =
    try Store.get store name
    with Not_found -> errorf "Eval: unknown array %s" name
  in
  let acc = ref 0.0 in
  let exec_segment (seg : Kernel.segment_spec) =
    let shift_of name =
      match List.assoc_opt name seg.shifts with Some s -> s | None -> 0
    in
    (* element index of an affine reference at loop position [base + e] *)
    let affine (r : Ir.ref_) ~base ~e =
      let arr = array r.array in
      let idx = shift_of r.array + r.offset + ((base + e) * r.scale) in
      if idx < 0 || idx >= Array.length arr then
        errorf "Eval: %s[%d] out of bounds (len %d)" r.array idx
          (Array.length arr);
      (arr, idx)
    in
    let indexed name offset index =
      let arr = array name in
      let idx = offset + int_of_float index in
      if idx < 0 || idx >= Array.length arr then
        errorf "Eval: indexed %s[%d] out of bounds" name idx;
      (arr, idx)
    in
    (* expression value at loop position [base + e]; reads happen at
       evaluation time, exactly as the compiled loads do *)
    let rec eval temps ~base ~e = function
      | Ir.Load r ->
          let arr, idx = affine r ~base ~e in
          arr.(idx)
      | Ir.Scalar s -> scalar s
      | Ir.Temp t -> (
          match List.assoc_opt t temps with
          | Some v -> v.(e)
          | None -> errorf "Eval: unbound temp %s" t)
      | Ir.Add (a, b) -> eval temps ~base ~e a +. eval temps ~base ~e b
      | Ir.Sub (a, b) -> eval temps ~base ~e a -. eval temps ~base ~e b
      | Ir.Mul (a, b) -> eval temps ~base ~e a *. eval temps ~base ~e b
      | Ir.Div (a, b) -> eval temps ~base ~e a /. eval temps ~base ~e b
      | Ir.Neg a -> (
          let v = eval temps ~base ~e a in
          match mode with
          | Job.Vector -> -.v
          | Job.Scalar ->
              (* the scalar lowerer has no negate: it zeroes a stale
                 scratch register and subtracts.  Whether that zero IS
                 zero depends on register history the IR cannot see. *)
              errorf "Eval: Neg is not value-faithful in scalar mode")
      | Ir.Sqrt a -> Float.sqrt (eval temps ~base ~e a)
      | Ir.Gather { array = name; offset; index } ->
          let arr, idx = indexed name offset (eval temps ~base ~e index) in
          arr.(idx)
      | Ir.Select { op; a; b; if_true; if_false } ->
          let va = eval temps ~base ~e a in
          let vb = eval temps ~base ~e b in
          let taken =
            match op with
            | Ir.CLt -> va < vb
            | Ir.CLe -> va <= vb
            | Ir.CEq -> va = vb
            | Ir.CNe -> va <> vb
          in
          (* both branches are computed by the compiled code; neither
             has effects, so evaluating only the taken one is equal *)
          if taken then eval temps ~base ~e if_true
          else eval temps ~base ~e if_false
    in
    let vector temps ~base ~vl e_expr =
      Array.init vl (fun e -> eval temps ~base ~e e_expr)
    in
    (* prologue: accumulator init *)
    (match k.acc with
    | None -> ()
    | Some spec -> (
        match spec.init with
        | Kernel.Zero ->
            (* the compiled init subtracts the register from itself *)
            acc := !acc -. !acc
        | Kernel.Load_from r ->
            let arr, idx = affine r ~base:seg.base ~e:0 in
            acc := arr.(idx)));
    (* strips *)
    let step = match mode with Job.Vector -> max_vl | Job.Scalar -> 1 in
    let remaining = ref seg.length in
    let base = ref seg.base in
    while !remaining > 0 do
      let vl = min step !remaining in
      let temps = ref [] in
      List.iter
        (function
          | Ir.Let (t, e) ->
              temps := (t, vector !temps ~base:!base ~vl e) :: !temps
          | Ir.Store (r, e) ->
              (* full value vector first, then the ascending writes *)
              let v = vector !temps ~base:!base ~vl e in
              for e' = 0 to vl - 1 do
                let arr, idx = affine r ~base:!base ~e:e' in
                arr.(idx) <- v.(e')
              done
          | Ir.Scatter { array = name; offset; index; value } ->
              let v = vector !temps ~base:!base ~vl value in
              let ix = vector !temps ~base:!base ~vl index in
              for e' = 0 to vl - 1 do
                let arr, idx = indexed name offset ix.(e') in
                arr.(idx) <- v.(e')
              done
          | Ir.Reduce { neg; rhs } ->
              let v = vector !temps ~base:!base ~vl rhs in
              let partial = ref 0.0 in
              for e' = 0 to vl - 1 do
                partial := !partial +. v.(e')
              done;
              acc := (if neg then !acc -. !partial else !acc +. !partial))
        k.body;
      base := !base + vl;
      remaining := !remaining - vl
    done;
    (* epilogue: scale and store the accumulator *)
    match k.acc with
    | None -> ()
    | Some spec ->
        (match spec.scale_by with
        | None -> ()
        | Some s -> acc := !acc *. scalar s);
        (match spec.store_to with
        | None -> ()
        | Some r ->
            let arr, idx = affine r ~base:seg.base ~e:0 in
            arr.(idx) <- !acc)
  in
  List.iter exec_segment k.segments

let run ~mode ~store k =
  try Ok (run_raw ~mode ~store k) with Fault e -> Error e
