open Convex_isa

type t = { table : (string, int * int) Hashtbl.t; order : string list }

(* Words between consecutive arrays. *)
let pad = 1

let build ?(base = 0) arrays =
  let table = Hashtbl.create 16 in
  let next = ref base in
  let order =
    List.map
      (fun (name, size) ->
        if size <= 0 then
          invalid_arg (Printf.sprintf "Layout.build: size of %s <= 0" name);
        if Hashtbl.mem table name then
          invalid_arg (Printf.sprintf "Layout.build: duplicate array %s" name);
        Hashtbl.add table name (!next, size);
        next := !next + size + pad;
        name)
      arrays
  in
  { table; order }

let of_program p = build (List.map (fun a -> (a, 4096)) (Program.arrays p))

let alias t ~existing name =
  match Hashtbl.find_opt t.table existing with
  | None -> raise Not_found
  | Some entry ->
      if Hashtbl.mem t.table name then
        invalid_arg (Printf.sprintf "Layout.alias: %s already placed" name);
      Hashtbl.add t.table name entry

let lookup t name =
  match Hashtbl.find_opt t.table name with
  | Some entry -> entry
  | None -> raise Not_found

let base_of t name = fst (lookup t name)
let size_of t name = snd (lookup t name)
let arrays t = t.order

let word_of t (m : Instr.mem) ~base_index ~element =
  base_of t m.array + m.offset + ((base_index + element) * m.stride)

let scalar_word_of t m ~base_index = word_of t m ~base_index ~element:0
