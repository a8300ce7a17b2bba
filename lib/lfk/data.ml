let name_seed name =
  (* FNV-1a over the array name, reduced to a small positive seed *)
  let h = ref 2166136261 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 16777619 land 0x3FFFFFFF)
    name;
  !h

(* Arrays whose name starts with IDX hold integer-valued index data (a
   deterministic pseudo-random permutation pattern over [0; 1024)), so
   gather/scatter kernels built on the default fill stay in bounds. *)
let index_array name =
  String.length name >= 3 && String.sub name 0 3 = "IDX"

let value name i =
  if index_array name then
    float_of_int (((i * 7919) + name_seed name) land 1023)
  else
    let mixed = ((i * 1664525) + name_seed name) land 0x3FFFFFFF in
    0.001 +. (0.15 *. float_of_int (mixed mod 9973) /. 9973.0)

let fill name n = Array.init n (value name)

let store_of (k : Kernel.t) =
  let base =
    List.map (fun (name, size) -> (name, fill name size)) k.arrays
  in
  let aliased =
    List.map
      (fun (alias, target) -> (alias, List.assoc target base))
      k.aliases
  in
  Convex_vpsim.Store.create (base @ aliased)

