type v = int
type s = int
type a = int

let vector_count = 8
let scalar_count = 8
let address_count = 8
let pair_count = 4

let check name limit i =
  if i < 0 || i >= limit then
    invalid_arg (Printf.sprintf "Reg.%s: index %d out of range" name i)

let v i =
  check "v" vector_count i;
  i

let s i =
  check "s" scalar_count i;
  i

let a i =
  check "a" address_count i;
  i

let v_index r = r
let s_index r = r
let a_index r = r

(* {v0,v4} {v1,v5} {v2,v6} {v3,v7}: the pair id is the index modulo 4. *)
let pair_id r = r mod pair_count
let all_v = List.init vector_count Fun.id
let pp_v fmt r = Format.fprintf fmt "v%d" r
let pp_s fmt r = Format.fprintf fmt "s%d" r
let equal_v = Int.equal
let equal_s = Int.equal
let show_v r = Printf.sprintf "v%d" r
let show_s r = Printf.sprintf "s%d" r
let show_a r = Printf.sprintf "a%d" r
