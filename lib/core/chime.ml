open Convex_isa
open Convex_machine

type t = { instrs : Instr.t list; split_by_scalar_memory : bool }

let instr_count c = List.length c.instrs
let has_memory c = List.exists Instr.is_vector_memory c.instrs

let z_max ~machine c =
  List.fold_left
    (fun acc i ->
      match Instr.vclass_of i with
      | Some cls -> Float.max acc (Timing.get machine.Machine.timing cls).z
      | None -> acc)
    1.0 c.instrs

let bubble_sum ~machine c =
  List.fold_left
    (fun acc i ->
      match Instr.vclass_of i with
      | Some cls -> acc + (Timing.get machine.Machine.timing cls).b
      | None -> acc)
    0 c.instrs

(* Can [i] join the chime currently holding [members] (given the memory
   barrier state)?  Checks pipe occupancy and register-pair ports. *)
let fits ~machine ~barrier members i =
  let pipe = Option.get (Pipe.of_instr i) in
  let on_pipe =
    List.length
      (List.filter (fun m -> Pipe.of_instr m = Some pipe) members)
  in
  if on_pipe >= Machine.pipe_count machine pipe then false
  else if barrier && Instr.is_vector_memory i then false
  else
    let group = i :: members in
    let pair_count f pid =
      List.fold_left
        (fun acc m ->
          acc
          + List.length (List.filter (fun r -> Reg.pair_id r = pid) (f m)))
        0 group
    in
    let ok pid =
      pair_count Instr.reads_v pid <= machine.Machine.pair_read_limit
      && pair_count Instr.writes_v pid <= machine.Machine.pair_write_limit
    in
    List.for_all ok (List.init Reg.pair_count Fun.id)

let partition ~machine instrs =
  (* state: current chime members (reversed), barrier flag, accumulated
     chimes (reversed) *)
  let close members ~split acc =
    if members = [] then acc
    else { instrs = List.rev members; split_by_scalar_memory = split } :: acc
  in
  let rec go members barrier acc = function
    | [] -> List.rev (close members ~split:false acc)
    | i :: rest ->
        if Instr.is_scalar i then
          if Instr.is_scalar_memory i then
            if List.exists Instr.is_vector_memory members then
              (* scalar memory splits a chime containing vector memory *)
              go [] false (close members ~split:true acc) rest
            else
              (* no vector memory yet: bar memory ops from joining *)
              go members true acc rest
          else go members barrier acc rest
        else if fits ~machine ~barrier members i then
          go (i :: members) barrier acc rest
        else go [ i ] false (close members ~split:false acc) rest
  in
  go [] false [] instrs

let pp fmt c =
  Format.fprintf fmt "@[<v>chime (%d instrs%s):" (instr_count c)
    (if c.split_by_scalar_memory then ", split by scalar memory" else "");
  List.iter
    (fun i -> Format.fprintf fmt "@,  %s" (Asm.print_instr i))
    c.instrs;
  Format.fprintf fmt "@]"
