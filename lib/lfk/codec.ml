(* ---- s-expressions ---- *)

type sexp = Atom of string | List of sexp list

let atom_needs_quotes s =
  s = ""
  || String.exists
       (function
         | ' ' | '\t' | '\n' | '(' | ')' | '"' | '\\' -> true | _ -> false)
       s

let print_atom s =
  if atom_needs_quotes s then
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  else s

let rec print_sexp = function
  | Atom s -> print_atom s
  | List l -> "(" ^ String.concat " " (List.map print_sexp l) ^ ")"

exception Parse of string

let parse_sexp (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let parse_quoted () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Parse "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some c -> advance (); Buffer.add_char buf c; go ()
          | None -> raise (Parse "unterminated escape"))
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_bare () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"') | None -> ()
      | Some _ ->
          advance ();
          go ()
    in
    go ();
    String.sub s start (!pos - start)
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse "unexpected end of input")
    | Some '(' ->
        advance ();
        let items = ref [] in
        let rec go () =
          skip_ws ();
          match peek () with
          | None -> raise (Parse "unterminated list")
          | Some ')' -> advance ()
          | Some _ ->
              items := parse_one () :: !items;
              go ()
        in
        go ();
        List (List.rev !items)
    | Some ')' -> raise (Parse "unexpected )")
    | Some '"' -> Atom (parse_quoted ())
    | Some _ -> Atom (parse_bare ())
  in
  let v = parse_one () in
  skip_ws ();
  if !pos <> n then raise (Parse "trailing garbage");
  v

(* ---- printing ---- *)

let sexp_of_ref (r : Ir.ref_) =
  List [ Atom r.array; Atom (string_of_int r.scale);
         Atom (string_of_int r.offset) ]

let atom_of_cmp = function
  | Ir.CLt -> Atom "lt"
  | Ir.CLe -> Atom "le"
  | Ir.CEq -> Atom "eq"
  | Ir.CNe -> Atom "ne"

let rec sexp_of_expr = function
  | Ir.Load r -> List [ Atom "load"; sexp_of_ref r ]
  | Ir.Scalar s -> List [ Atom "scalar"; Atom s ]
  | Ir.Temp t -> List [ Atom "temp"; Atom t ]
  | Ir.Add (a, b) -> List [ Atom "add"; sexp_of_expr a; sexp_of_expr b ]
  | Ir.Sub (a, b) -> List [ Atom "sub"; sexp_of_expr a; sexp_of_expr b ]
  | Ir.Mul (a, b) -> List [ Atom "mul"; sexp_of_expr a; sexp_of_expr b ]
  | Ir.Div (a, b) -> List [ Atom "div"; sexp_of_expr a; sexp_of_expr b ]
  | Ir.Neg a -> List [ Atom "neg"; sexp_of_expr a ]
  | Ir.Sqrt a -> List [ Atom "sqrt"; sexp_of_expr a ]
  | Ir.Gather { array; offset; index } ->
      List
        [ Atom "gather"; Atom array; Atom (string_of_int offset);
          sexp_of_expr index ]
  | Ir.Select { op; a; b; if_true; if_false } ->
      List
        [ Atom "select"; atom_of_cmp op; sexp_of_expr a; sexp_of_expr b;
          sexp_of_expr if_true; sexp_of_expr if_false ]

let sexp_of_stmt = function
  | Ir.Let (t, e) -> List [ Atom "let"; Atom t; sexp_of_expr e ]
  | Ir.Store (r, e) -> List [ Atom "store"; sexp_of_ref r; sexp_of_expr e ]
  | Ir.Scatter { array; offset; index; value } ->
      List
        [ Atom "scatter"; Atom array; Atom (string_of_int offset);
          sexp_of_expr index; sexp_of_expr value ]
  | Ir.Reduce { neg; rhs } ->
      List [ Atom "reduce"; Atom (if neg then "-" else "+");
             sexp_of_expr rhs ]

let sexp_of_segment (s : Kernel.segment_spec) =
  List
    [
      List [ Atom "base"; Atom (string_of_int s.base) ];
      List [ Atom "length"; Atom (string_of_int s.length) ];
      List
        (Atom "shifts"
        :: List.map
             (fun (a, n) -> List [ Atom a; Atom (string_of_int n) ])
             s.shifts);
    ]

let sexp_of_acc (a : Kernel.acc_spec) =
  let init =
    match a.init with
    | Kernel.Zero -> Atom "zero"
    | Kernel.Load_from r -> List [ Atom "load-from"; sexp_of_ref r ]
  in
  let scale_by =
    match a.scale_by with None -> Atom "none" | Some s -> Atom s
  in
  let store_to =
    match a.store_to with None -> Atom "none" | Some r -> sexp_of_ref r
  in
  List
    [
      List [ Atom "init"; init ];
      List [ Atom "scale-by"; scale_by ];
      List [ Atom "store-to"; store_to ];
    ]

let to_string (k : Kernel.t) =
  print_sexp
    (List
       [
         Atom "kernel";
         List [ Atom "id"; Atom (string_of_int k.id) ];
         List [ Atom "name"; Atom k.name ];
         List [ Atom "description"; Atom k.description ];
         List [ Atom "fortran"; Atom k.fortran ];
         List
           (Atom "scalars"
           :: List.map
                (fun (s, v) ->
                  List [ Atom s; Atom (Printf.sprintf "%h" v) ])
                k.scalars);
         List
           (Atom "arrays"
           :: List.map
                (fun (a, n) -> List [ Atom a; Atom (string_of_int n) ])
                k.arrays);
         List
           (Atom "aliases"
           :: List.map (fun (a, t) -> List [ Atom a; Atom t ]) k.aliases);
         List (Atom "segments" :: List.map sexp_of_segment k.segments);
         List [ Atom "outer-ops"; Atom (string_of_int k.outer_ops) ];
         (match k.acc with
         | None -> List [ Atom "acc"; Atom "none" ]
         | Some a -> List [ Atom "acc"; sexp_of_acc a ]);
         List (Atom "body" :: List.map sexp_of_stmt k.body);
       ])

(* ---- parsing ---- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let atom = function Atom s -> s | List _ -> fail "expected atom"

let int_of = function
  | Atom s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> fail "expected integer, got %s" s)
  | List _ -> fail "expected integer"

let float_of = function
  | Atom s -> (
      match float_of_string_opt s with
      | Some v -> v
      | None -> fail "expected float, got %s" s)
  | List _ -> fail "expected float"

let ref_of = function
  | List [ a; sc; off ] ->
      { Ir.array = atom a; scale = int_of sc; offset = int_of off }
  | _ -> fail "expected (array scale offset) reference"

let cmp_of = function
  | Atom "lt" -> Ir.CLt
  | Atom "le" -> Ir.CLe
  | Atom "eq" -> Ir.CEq
  | Atom "ne" -> Ir.CNe
  | s -> fail "unknown comparison %s" (print_sexp s)

let rec expr_of = function
  | List [ Atom "load"; r ] -> Ir.Load (ref_of r)
  | List [ Atom "scalar"; s ] -> Ir.Scalar (atom s)
  | List [ Atom "temp"; t ] -> Ir.Temp (atom t)
  | List [ Atom "add"; a; b ] -> Ir.Add (expr_of a, expr_of b)
  | List [ Atom "sub"; a; b ] -> Ir.Sub (expr_of a, expr_of b)
  | List [ Atom "mul"; a; b ] -> Ir.Mul (expr_of a, expr_of b)
  | List [ Atom "div"; a; b ] -> Ir.Div (expr_of a, expr_of b)
  | List [ Atom "neg"; a ] -> Ir.Neg (expr_of a)
  | List [ Atom "sqrt"; a ] -> Ir.Sqrt (expr_of a)
  | List [ Atom "gather"; a; off; ix ] ->
      Ir.Gather { array = atom a; offset = int_of off; index = expr_of ix }
  | List [ Atom "select"; op; a; b; t; f ] ->
      Ir.Select
        { op = cmp_of op; a = expr_of a; b = expr_of b;
          if_true = expr_of t; if_false = expr_of f }
  | s -> fail "unknown expression %s" (print_sexp s)

let stmt_of = function
  | List [ Atom "let"; t; e ] -> Ir.Let (atom t, expr_of e)
  | List [ Atom "store"; r; e ] -> Ir.Store (ref_of r, expr_of e)
  | List [ Atom "scatter"; a; off; ix; v ] ->
      Ir.Scatter
        { array = atom a; offset = int_of off; index = expr_of ix;
          value = expr_of v }
  | List [ Atom "reduce"; Atom sign; e ] ->
      let neg =
        match sign with
        | "-" -> true
        | "+" -> false
        | s -> fail "reduce sign must be + or -, got %s" s
      in
      Ir.Reduce { neg; rhs = expr_of e }
  | s -> fail "unknown statement %s" (print_sexp s)

let segment_of = function
  | List
      [
        List [ Atom "base"; b ];
        List [ Atom "length"; l ];
        List (Atom "shifts" :: shifts);
      ] ->
      {
        Kernel.base = int_of b;
        length = int_of l;
        shifts =
          List.map
            (function
              | List [ a; n ] -> (atom a, int_of n)
              | s -> fail "bad shift %s" (print_sexp s))
            shifts;
      }
  | s -> fail "bad segment %s" (print_sexp s)

let acc_of = function
  | Atom "none" -> None
  | List
      [
        List [ Atom "init"; init ];
        List [ Atom "scale-by"; scale_by ];
        List [ Atom "store-to"; store_to ];
      ] ->
      Some
        {
          Kernel.init =
            (match init with
            | Atom "zero" -> Kernel.Zero
            | List [ Atom "load-from"; r ] -> Kernel.Load_from (ref_of r)
            | s -> fail "bad acc init %s" (print_sexp s));
          scale_by =
            (match scale_by with Atom "none" -> None | s -> Some (atom s));
          store_to =
            (match store_to with
            | Atom "none" -> None
            | r -> Some (ref_of r));
        }
  | s -> fail "bad acc spec %s" (print_sexp s)

let pairs_of f = List.map (function
  | List [ a; b ] -> f a b
  | s -> fail "expected pair, got %s" (print_sexp s))

let of_string text =
  try
    match parse_sexp text with
    | List
        [
          Atom "kernel";
          List [ Atom "id"; id ];
          List [ Atom "name"; name ];
          List [ Atom "description"; description ];
          List [ Atom "fortran"; fortran ];
          List (Atom "scalars" :: scalars);
          List (Atom "arrays" :: arrays);
          List (Atom "aliases" :: aliases);
          List (Atom "segments" :: segments);
          List [ Atom "outer-ops"; outer_ops ];
          List [ Atom "acc"; acc ];
          List (Atom "body" :: body);
        ] ->
        Ok
          {
            Kernel.id = int_of id;
            name = atom name;
            description = atom description;
            fortran = atom fortran;
            body = List.map stmt_of body;
            acc = acc_of acc;
            scalars = pairs_of (fun a v -> (atom a, float_of v)) scalars;
            arrays = pairs_of (fun a n -> (atom a, int_of n)) arrays;
            aliases = pairs_of (fun a t -> (atom a, atom t)) aliases;
            segments = List.map segment_of segments;
            outer_ops = int_of outer_ops;
          }
    | _ -> Error "Codec: not a (kernel ...) form"
  with Parse msg -> Error ("Codec: " ^ msg)
