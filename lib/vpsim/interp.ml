open Convex_isa

(* Internal unwind carrying the typed fault; caught at the entry points so
   the stepping code below stays direct-style. *)
exception Fault of Macs_util.Macs_error.t

let errorf fmt =
  Printf.ksprintf
    (fun s ->
      raise (Fault (Macs_util.Macs_error.interp_fault ~site:"Interp.run" s)))
    fmt

let run_raw ?(max_vl = 128) ?(sregs = []) ~store (job : Job.t) =
  let sr = Array.make Reg.scalar_count 0.0 in
  List.iter
    (fun (i, x) ->
      if i < 0 || i >= Reg.scalar_count then
        invalid_arg "Interp.run: scalar register index out of range";
      sr.(i) <- x)
    sregs;
  let vr = Array.init Reg.vector_count (fun _ -> Array.make max_vl 0.0) in
  let vm = Array.make max_vl false in
  let element (seg : Job.segment) (m : Instr.mem) ~base_index ~e =
    let shift =
      match List.assoc_opt m.array seg.shifts with Some s -> s | None -> 0
    in
    let arr =
      try Store.get store m.array
      with Not_found -> errorf "Interp: unknown array %s" m.array
    in
    let idx = shift + m.offset + ((base_index + e) * m.stride) in
    if idx < 0 || idx >= Array.length arr then
      errorf "Interp: %s[%d] out of bounds (len %d)" m.array idx
        (Array.length arr);
    (arr, idx)
  in
  let apply_bin op a b =
    match op with
    | Instr.Add -> a +. b
    | Instr.Sub -> a -. b
    | Instr.Mul -> a *. b
    | Instr.Div -> a /. b
  in
  let vsrc_value ~e = function
    | Instr.Vr r -> vr.(Reg.v_index r).(e)
    | Instr.Sr r -> sr.(Reg.s_index r)
  in
  let exec (seg : Job.segment) ~base_index ~vl i =
    match i with
    | Instr.Vld { dst; src } ->
        let d = vr.(Reg.v_index dst) in
        for e = 0 to vl - 1 do
          let arr, idx = element seg src ~base_index ~e in
          d.(e) <- arr.(idx)
        done
    | Vst { src; dst } ->
        let s = vr.(Reg.v_index src) in
        for e = 0 to vl - 1 do
          let arr, idx = element seg dst ~base_index ~e in
          arr.(idx) <- s.(e)
        done
    | Vbin { op; dst; src1; src2 } ->
        let d = vr.(Reg.v_index dst) in
        for e = 0 to vl - 1 do
          d.(e) <- apply_bin op (vsrc_value ~e src1) (vsrc_value ~e src2)
        done
    | Vneg { dst; src } ->
        let d = vr.(Reg.v_index dst) and s = vr.(Reg.v_index src) in
        for e = 0 to vl - 1 do
          d.(e) <- -.s.(e)
        done
    | Vsqrt { dst; src } ->
        let d = vr.(Reg.v_index dst) and s = vr.(Reg.v_index src) in
        for e = 0 to vl - 1 do
          d.(e) <- Float.sqrt s.(e)
        done
    | Vcmp { op; src1; src2 } ->
        let a = vr.(Reg.v_index src1) in
        for e = 0 to vl - 1 do
          let b = vsrc_value ~e src2 in
          vm.(e) <-
            (match op with
            | Instr.Lt -> a.(e) < b
            | Instr.Le -> a.(e) <= b
            | Instr.Eq -> a.(e) = b
            | Instr.Ne -> a.(e) <> b)
        done
    | Vmerge { dst; src_true; src_false } ->
        let d = vr.(Reg.v_index dst) in
        for e = 0 to vl - 1 do
          d.(e) <-
            (if vm.(e) then vsrc_value ~e src_true
             else vsrc_value ~e src_false)
        done
    | Vgather { dst; base; index } ->
        let d = vr.(Reg.v_index dst) and ix = vr.(Reg.v_index index) in
        let arr =
          try Store.get store base.array
          with Not_found -> errorf "Interp: unknown array %s" base.array
        in
        for e = 0 to vl - 1 do
          let idx = base.offset + int_of_float ix.(e) in
          if idx < 0 || idx >= Array.length arr then
            errorf "Interp: gather %s[%d] out of bounds" base.array idx;
          d.(e) <- arr.(idx)
        done
    | Vscatter { src; base; index } ->
        let s = vr.(Reg.v_index src) and ix = vr.(Reg.v_index index) in
        let arr =
          try Store.get store base.array
          with Not_found -> errorf "Interp: unknown array %s" base.array
        in
        for e = 0 to vl - 1 do
          let idx = base.offset + int_of_float ix.(e) in
          if idx < 0 || idx >= Array.length arr then
            errorf "Interp: scatter %s[%d] out of bounds" base.array idx;
          arr.(idx) <- s.(e)
        done
    | Vsum { dst; src } ->
        let s = vr.(Reg.v_index src) in
        let acc = ref 0.0 in
        for e = 0 to vl - 1 do
          acc := !acc +. s.(e)
        done;
        sr.(Reg.s_index dst) <- !acc
    | Sld { dst; src } ->
        let arr, idx = element seg src ~base_index ~e:0 in
        sr.(Reg.s_index dst) <- arr.(idx)
    | Sst { src; dst } ->
        let arr, idx = element seg dst ~base_index ~e:0 in
        arr.(idx) <- sr.(Reg.s_index src)
    | Sbin { op; dst; src1; src2 } ->
        sr.(Reg.s_index dst) <-
          apply_bin op sr.(Reg.s_index src1) sr.(Reg.s_index src2)
    | Sop _ | Smovvl | Sbranch -> ()
  in
  List.iter
    (fun (seg : Job.segment) ->
      let pro_vl = min seg.vl max_vl in
      List.iter (exec seg ~base_index:seg.base ~vl:pro_vl) seg.prologue;
      let step = match job.mode with
        | Job.Vector -> max_vl
        | Job.Scalar -> 1
      in
      let remaining = ref seg.vl in
      let base = ref seg.base in
      while !remaining > 0 do
        let vl = min step !remaining in
        List.iter (exec seg ~base_index:!base ~vl) job.body;
        base := !base + vl;
        remaining := !remaining - vl
      done;
      List.iter (exec seg ~base_index:seg.base ~vl:pro_vl) seg.epilogue)
    job.segments;
  sr

let run_result ?max_vl ?sregs ~store job =
  try Ok (run_raw ?max_vl ?sregs ~store job) with Fault e -> Error e

let run ?sregs ~store job = run_result ?sregs ~store job

let run_exn ?max_vl ?sregs ~store job =
  Macs_util.Macs_error.of_result (run_result ?max_vl ?sregs ~store job)
