type t = { steal : float; seed : int }

let none = { steal = 0.0; seed = 0 }

(* [sampler] can never steal a cycle when the probability is zero, so a
   zero-steal model is behaviourally [none] whatever its seed — the
   tiered fast path keys off this, not physical equality *)
let is_none t = t.steal <= 0.0

let of_steal_probability ?(seed = 0x9e3779b9) steal =
  if steal < 0.0 || steal >= 1.0 then
    invalid_arg "Contention.of_steal_probability: out of [0;1)";
  { steal; seed }

let of_load_average load =
  if load <= 1.0 then none
  else
    (* Each of the other CPUs competes for the crossbar slot.  With three
       competitors at load >= 4 the effective access time saturates around
       1.5-1.6 cycles, matching the paper's 56-64 ns observation. *)
    let competitors = Float.min 3.0 (load -. 1.0) in
    let per_competitor = 0.12 in
    of_steal_probability (Float.min 0.38 (competitors *. per_competitor))

let steal_probability t = t.steal

(* splitmix64 finalizer over (seed, cycle); deterministic and stateless. *)
let mix seed cycle =
  let z = Int64.of_int ((seed * 0x2545f49) lxor cycle) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let sampler t cycle =
  if t.steal <= 0.0 then false
  else
    let bits = Int64.to_float (Int64.shift_right_logical (mix t.seed cycle) 11) in
    let u = bits /. 9007199254740992.0 (* 2^53 *) in
    u < t.steal

let pp fmt t =
  if t.steal <= 0.0 then Format.fprintf fmt "no contention"
  else Format.fprintf fmt "contention(steal=%.2f, seed=%#x)" t.steal t.seed
