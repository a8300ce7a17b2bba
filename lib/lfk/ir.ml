type cmp = CLt | CLe | CEq | CNe [@@deriving show]

type ref_ = { array : string; scale : int; offset : int }
[@@deriving show, eq]

type expr =
  | Load of ref_
  | Scalar of string
  | Temp of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr
  | Neg of expr
  | Sqrt of expr
  | Gather of { array : string; offset : int; index : expr }
  | Select of { op : cmp; a : expr; b : expr; if_true : expr; if_false : expr }
[@@deriving show]

type stmt =
  | Let of string * expr
  | Store of ref_ * expr
  | Scatter of { array : string; offset : int; index : expr; value : expr }
  | Reduce of { neg : bool; rhs : expr }
[@@deriving show]

let rec expr_ops (fa, fm) = function
  | Load _ | Scalar _ | Temp _ -> (fa, fm)
  | Add (a, b) | Sub (a, b) -> expr_ops (expr_ops (fa + 1, fm) a) b
  | Mul (a, b) | Div (a, b) -> expr_ops (expr_ops (fa, fm + 1) a) b
  | Neg a -> expr_ops (fa, fm) a
  | Sqrt a -> expr_ops (fa, fm + 1) a
  | Gather { index; _ } -> expr_ops (fa, fm) index
  | Select { a; b; if_true; if_false; _ } ->
      expr_ops (expr_ops (expr_ops (expr_ops (fa, fm) a) b) if_true) if_false

let stmt_ops acc = function
  | Let (_, e) | Store (_, e) -> expr_ops acc e
  | Scatter { index; value; _ } -> expr_ops (expr_ops acc index) value
  | Reduce { rhs; _ } ->
      let fa, fm = expr_ops acc rhs in
      (fa + 1, fm)

let op_counts stmts = List.fold_left stmt_ops (0, 0) stmts

let flops stmts =
  let fa, fm = op_counts stmts in
  fa + fm

let rec expr_loads acc = function
  | Load r -> r :: acc
  | Scalar _ | Temp _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_loads (expr_loads acc a) b
  | Neg a -> expr_loads acc a
  | Sqrt a -> expr_loads acc a
  | Gather { index; _ } -> expr_loads acc index
  | Select { a; b; if_true; if_false; _ } ->
      expr_loads (expr_loads (expr_loads (expr_loads acc a) b) if_true)
        if_false

let dedup_keep_order xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let load_refs stmts =
  let all =
    List.fold_left
      (fun acc s ->
        match s with
        | Let (_, e) | Store (_, e) -> expr_loads acc e
        | Scatter { index; value; _ } ->
            expr_loads (expr_loads acc index) value
        | Reduce { rhs; _ } -> expr_loads acc rhs)
      [] stmts
  in
  dedup_keep_order (List.rev all)

let store_refs stmts =
  List.filter_map
    (function
      | Store (r, _) -> Some r
      | Let _ | Scatter _ | Reduce _ -> None)
    stmts

let rec expr_gathers acc = function
  | Gather { array; index; _ } -> expr_gathers (array :: acc) index
  | Load _ | Scalar _ | Temp _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_gathers (expr_gathers acc a) b
  | Neg a | Sqrt a -> expr_gathers acc a
  | Select { a; b; if_true; if_false; _ } ->
      expr_gathers
        (expr_gathers (expr_gathers (expr_gathers acc a) b) if_true)
        if_false

let indexed_arrays stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Let (_, e) | Store (_, e) -> expr_gathers acc e
      | Scatter { array; index; value; _ } ->
          array :: expr_gathers (expr_gathers acc index) value
      | Reduce { rhs; _ } -> expr_gathers acc rhs)
    [] stmts
  |> List.sort_uniq String.compare

let gather_count stmts =
  let rec count = function
    | Gather { index; _ } -> 1 + count index
    | Load _ | Scalar _ | Temp _ -> 0
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> count a + count b
    | Neg a | Sqrt a -> count a
    | Select { a; b; if_true; if_false; _ } ->
        count a + count b + count if_true + count if_false
  in
  List.fold_left
    (fun acc s ->
      match s with
      | Let (_, e) | Store (_, e) -> acc + count e
      | Scatter { index; value; _ } -> acc + count index + count value
      | Reduce { rhs; _ } -> acc + count rhs)
    0 stmts

let scatter_count stmts =
  List.length (List.filter (function Scatter _ -> true | _ -> false) stmts)

let select_count stmts =
  let rec count = function
    | Select { a; b; if_true; if_false; _ } ->
        1 + count a + count b + count if_true + count if_false
    | Load _ | Scalar _ | Temp _ -> 0
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> count a + count b
    | Neg a | Sqrt a | Gather { index = a; _ } -> count a
  in
  List.fold_left
    (fun acc s ->
      match s with
      | Let (_, e) | Store (_, e) -> acc + count e
      | Scatter { index; value; _ } -> acc + count index + count value
      | Reduce { rhs; _ } -> acc + count rhs)
    0 stmts

let stream_key (r : ref_) =
  if r.scale = 0 then (r.array, 0, r.offset)
  else
    let m = ((r.offset mod r.scale) + abs r.scale) mod abs r.scale in
    (r.array, r.scale, m)

(* References in one congruence class coalesce only while their offsets
   stay within a small window of strides: x(k+10) and x(k+11) share a
   stream, but columns hundreds of words apart (LFK9's predictors) are
   separate streams even though their offsets are congruent. *)
let reuse_window_strides = 8

let ma_load_count stmts =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : ref_) ->
      let key = stream_key r in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (r.offset :: prev))
    (load_refs stmts);
  Hashtbl.fold
    (fun (_, scale, _) offsets acc ->
      if scale = 0 then acc + 1
      else
        let sorted = List.sort_uniq Int.compare offsets in
        let window = reuse_window_strides * abs scale in
        let clusters, _ =
          List.fold_left
            (fun (count, last) off ->
              match last with
              | Some l when off - l <= window -> (count, Some off)
              | _ -> (count + 1, Some off))
            (0, None) sorted
        in
        acc + clusters)
    groups 0
  |> fun streams -> streams + gather_count stmts

let ma_store_count stmts = List.length (store_refs stmts) + scatter_count stmts

let rec expr_scalars acc = function
  | Scalar s -> s :: acc
  | Load _ | Temp _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_scalars (expr_scalars acc a) b
  | Neg a -> expr_scalars acc a
  | Sqrt a -> expr_scalars acc a
  | Gather { index; _ } -> expr_scalars acc index
  | Select { a; b; if_true; if_false; _ } ->
      expr_scalars
        (expr_scalars (expr_scalars (expr_scalars acc a) b) if_true)
        if_false

let scalars stmts =
  let all =
    List.fold_left
      (fun acc s ->
        match s with
        | Let (_, e) | Store (_, e) -> expr_scalars acc e
        | Scatter { index; value; _ } ->
            expr_scalars (expr_scalars acc index) value
        | Reduce { rhs; _ } -> expr_scalars acc rhs)
      [] stmts
  in
  dedup_keep_order (List.rev all)

let temps stmts =
  List.filter_map
    (function Let (t, _) -> Some t | Store _ | Scatter _ | Reduce _ -> None)
    stmts

let rec expr_temps acc = function
  | Temp t -> t :: acc
  | Load _ | Scalar _ -> acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_temps (expr_temps acc a) b
  | Neg a -> expr_temps acc a
  | Sqrt a -> expr_temps acc a
  | Gather { index; _ } -> expr_temps acc index
  | Select { a; b; if_true; if_false; _ } ->
      expr_temps
        (expr_temps (expr_temps (expr_temps acc a) b) if_true)
        if_false

let validate stmts =
  let ( let* ) = Result.bind in
  let* () =
    let bound = Hashtbl.create 8 in
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let used =
          match s with
          | Let (_, e) | Store (_, e) -> expr_temps [] e
          | Scatter { index; value; _ } ->
              expr_temps (expr_temps [] index) value
          | Reduce { rhs; _ } -> expr_temps [] rhs
        in
        let* () =
          List.fold_left
            (fun acc t ->
              let* () = acc in
              if Hashtbl.mem bound t then Ok ()
              else Error (Printf.sprintf "temp %s used before binding" t))
            (Ok ()) used
        in
        match s with
        | Let (t, _) ->
            if Hashtbl.mem bound t then
              Error (Printf.sprintf "temp %s bound twice" t)
            else begin
              Hashtbl.add bound t ();
              Ok ()
            end
        | Store _ | Scatter _ | Reduce _ -> Ok ())
      (Ok ()) stmts
  in
  let* () =
    let reduces =
      List.length
        (List.filter (function Reduce _ -> true | _ -> false) stmts)
    in
    if reduces > 1 then Error "more than one Reduce statement" else Ok ()
  in
  let* () =
    let bad_load =
      List.find_opt (fun (r : ref_) -> r.scale = 0) (load_refs stmts)
    in
    match bad_load with
    | Some r -> Error (Printf.sprintf "load of %s has zero scale" r.array)
    | None -> Ok ()
  in
  match List.find_opt (fun (r : ref_) -> r.scale = 0) (store_refs stmts) with
  | Some r -> Error (Printf.sprintf "store to %s has zero scale" r.array)
  | None -> Ok ()
