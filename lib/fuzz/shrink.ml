module Ir = Lfk.Ir
module Kernel = Lfk.Kernel

type 'a result = { value : 'a; steps : int; tried : int }

(* ---- expression rewrites: replace one node by one of its children ---- *)

let children = function
  | Ir.Load _ | Ir.Scalar _ | Ir.Temp _ -> []
  | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) -> [ a; b ]
  | Ir.Neg a | Ir.Sqrt a -> [ a ]
  | Ir.Gather { index; _ } -> [ index ]
  | Ir.Select { a; b; if_true; if_false; _ } -> [ if_true; if_false; a; b ]

let rec expr_candidates e =
  let at_root = children e in
  let deeper =
    match e with
    | Ir.Load _ | Ir.Scalar _ | Ir.Temp _ -> []
    | Ir.Add (a, b) ->
        List.map (fun a' -> Ir.Add (a', b)) (expr_candidates a)
        @ List.map (fun b' -> Ir.Add (a, b')) (expr_candidates b)
    | Ir.Sub (a, b) ->
        List.map (fun a' -> Ir.Sub (a', b)) (expr_candidates a)
        @ List.map (fun b' -> Ir.Sub (a, b')) (expr_candidates b)
    | Ir.Mul (a, b) ->
        List.map (fun a' -> Ir.Mul (a', b)) (expr_candidates a)
        @ List.map (fun b' -> Ir.Mul (a, b')) (expr_candidates b)
    | Ir.Div (a, b) ->
        List.map (fun a' -> Ir.Div (a', b)) (expr_candidates a)
        @ List.map (fun b' -> Ir.Div (a, b')) (expr_candidates b)
    | Ir.Neg a -> List.map (fun a' -> Ir.Neg a') (expr_candidates a)
    | Ir.Sqrt a -> List.map (fun a' -> Ir.Sqrt a') (expr_candidates a)
    | Ir.Gather g ->
        List.map
          (fun i' -> Ir.Gather { g with index = i' })
          (expr_candidates g.index)
    | Ir.Select s ->
        List.map (fun x -> Ir.Select { s with a = x }) (expr_candidates s.a)
        @ List.map (fun x -> Ir.Select { s with b = x }) (expr_candidates s.b)
        @ List.map
            (fun x -> Ir.Select { s with if_true = x })
            (expr_candidates s.if_true)
        @ List.map
            (fun x -> Ir.Select { s with if_false = x })
            (expr_candidates s.if_false)
  in
  at_root @ deeper

let stmt_candidates = function
  | Ir.Let (t, e) -> List.map (fun e' -> Ir.Let (t, e')) (expr_candidates e)
  | Ir.Store (r, e) ->
      List.map (fun e' -> Ir.Store (r, e')) (expr_candidates e)
  | Ir.Scatter s ->
      List.map
        (fun v' -> Ir.Scatter { s with value = v' })
        (expr_candidates s.value)
      @ List.map
          (fun i' -> Ir.Scatter { s with index = i' })
          (expr_candidates s.index)
  | Ir.Reduce r ->
      List.map (fun e' -> Ir.Reduce { r with rhs = e' }) (expr_candidates r.rhs)

(* ---- reference simplification ---- *)

let map_refs_expr f =
  let rec go = function
    | Ir.Load r -> Ir.Load (f r)
    | (Ir.Scalar _ | Ir.Temp _) as e -> e
    | Ir.Add (a, b) -> Ir.Add (go a, go b)
    | Ir.Sub (a, b) -> Ir.Sub (go a, go b)
    | Ir.Mul (a, b) -> Ir.Mul (go a, go b)
    | Ir.Div (a, b) -> Ir.Div (go a, go b)
    | Ir.Neg a -> Ir.Neg (go a)
    | Ir.Sqrt a -> Ir.Sqrt (go a)
    | Ir.Gather g -> Ir.Gather { g with index = go g.index }
    | Ir.Select s ->
        Ir.Select
          { s with a = go s.a; b = go s.b; if_true = go s.if_true;
            if_false = go s.if_false }
  in
  go

let map_refs_stmt f = function
  | Ir.Let (t, e) -> Ir.Let (t, map_refs_expr f e)
  | Ir.Store (r, e) -> Ir.Store (f r, map_refs_expr f e)
  | Ir.Scatter s ->
      Ir.Scatter
        { s with index = map_refs_expr f s.index;
          value = map_refs_expr f s.value }
  | Ir.Reduce r -> Ir.Reduce { r with rhs = map_refs_expr f r.rhs }

(* ---- tidying: keep only what the body references, minimally sized ---- *)

let has_reduce body =
  List.exists (function Ir.Reduce _ -> true | _ -> false) body

let tidy (k : Kernel.t) =
  let acc = if has_reduce k.body then k.acc else None in
  let k = { k with acc } in
  let used_scalars =
    Ir.scalars k.body
    @ (match acc with Some { scale_by = Some s; _ } -> [ s ] | _ -> [])
  in
  let sizes = Gen.min_array_sizes k in
  let used_arrays = List.map fst sizes in
  {
    k with
    scalars = List.filter (fun (s, _) -> List.mem s used_scalars) k.scalars;
    arrays = sizes;
    aliases =
      List.filter
        (fun (a, t) -> List.mem a used_arrays && List.mem t used_arrays)
        k.aliases;
    segments =
      List.map
        (fun (s : Kernel.segment_spec) ->
          { s with
            shifts =
              List.filter (fun (a, _) -> List.mem a used_arrays) s.shifts })
        k.segments;
  }

(* ---- candidate enumeration, aggressive first ---- *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let kernel_candidates (k : Kernel.t) =
  let with_body body = tidy { k with body } in
  let n = List.length k.body in
  let keep_one =
    if n <= 1 then []
    else List.map (fun s -> with_body [ s ]) k.body
  in
  let drop_one =
    if n <= 1 then []
    else List.init n (fun i -> with_body (drop_nth k.body i))
  in
  let one_segment =
    match k.segments with
    | _ :: _ :: _ -> [ tidy { k with segments = [ List.hd k.segments ] } ]
    | _ -> []
  in
  let segment_tweaks =
    List.concat
      (List.mapi
         (fun i (s : Kernel.segment_spec) ->
           let set s' =
             tidy
               { k with
                 segments =
                   List.mapi (fun j x -> if j = i then s' else x) k.segments }
           in
           (if s.shifts <> [] then [ set { s with shifts = [] } ] else [])
           @ (if s.base <> 0 then [ set { s with base = 0 } ] else [])
           @ (if s.length > 1 then
                [ set { s with length = 1 } ]
                @ if s.length > 2 then [ set { s with length = s.length / 2 } ]
                  else []
              else []))
         k.segments)
  in
  let acc_tweaks =
    match k.acc with
    | None -> []
    | Some spec ->
        let set spec' = tidy { k with acc = Some spec' } in
        (match spec.scale_by with
        | Some _ -> [ set { spec with scale_by = None } ]
        | None -> [])
        @ (match spec.init with
          | Kernel.Load_from _ -> [ set { spec with init = Kernel.Zero } ]
          | Kernel.Zero -> [])
        @ (match spec.store_to with
          | Some _ -> [ set { spec with store_to = None } ]
          | None -> [])
  in
  let expr_shrinks =
    List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun s' ->
               with_body
                 (List.mapi (fun j x -> if j = i then s' else x) k.body))
             (stmt_candidates s))
         k.body)
  in
  let ref_simplifications =
    let unit_scale (r : Ir.ref_) = { r with scale = (if r.scale = 0 then 0 else 1) } in
    let zero_offset (r : Ir.ref_) = { r with offset = 0 } in
    let apply f =
      let body = List.map (map_refs_stmt f) k.body in
      let acc =
        Option.map
          (fun (spec : Kernel.acc_spec) ->
            { spec with
              init =
                (match spec.init with
                | Kernel.Load_from r -> Kernel.Load_from (f r)
                | Kernel.Zero -> Kernel.Zero);
              store_to = Option.map f spec.store_to })
          k.acc
      in
      tidy { k with body; acc }
    in
    [ apply unit_scale; apply zero_offset ]
  in
  let scalar_units =
    let all_unit = List.map (fun (s, _) -> (s, 1.0)) k.scalars in
    (if k.scalars <> [] && k.scalars <> all_unit then
       [ tidy { k with scalars = all_unit } ]
     else [])
    @ List.filter_map
        (fun (s, v) ->
          if v <> 1.0 then
            Some
              (tidy
                 { k with
                   scalars =
                     List.map
                       (fun (s', v') -> if s' = s then (s', 1.0) else (s', v'))
                       k.scalars })
          else None)
        k.scalars
  in
  let outer = if k.outer_ops <> 0 then [ tidy { k with outer_ops = 0 } ] else [] in
  let tidied = let t = tidy k in if t <> k then [ t ] else [] in
  tidied @ keep_one @ drop_one @ one_segment @ segment_tweaks @ acc_tweaks
  @ expr_shrinks @ ref_simplifications @ scalar_units @ outer

(* ---- the greedy strategy, generalized over the case type ---- *)

module type Case = sig
  type t

  val equal : t -> t -> bool
  val valid : t -> bool
  val candidates : t -> t list
end

module Exec = Convex_exec.Executor

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as l -> if n <= 0 then l else drop (n - 1) rest

module Make (C : Case) = struct
  let shrink ?(max_steps = 200) ?(jobs = 1) ~still_fails start =
    let tried = ref 0 in
    let steps = ref 0 in
    let current = ref start in
    let progress = ref true in
    (* [jobs > 1] evaluates candidates in executor-parallel chunks but
       accepts the *lowest-indexed* failing candidate and counts [tried]
       exactly as the sequential scan would: every candidate before the
       accepted one, plus the accepted one itself (chunk-mates evaluated
       beyond it are wasted work, not counted).  Same input → same
       shrunk value, steps and tried at every [jobs]. *)
    let eval_chunk chunk =
      let arr = Array.of_list chunk in
      let results, _ =
        Exec.run ~jobs ~cells:(Array.length arr) (fun i -> still_fails arr.(i))
      in
      let rec first i =
        if i >= Array.length arr then None
        else
          match results.(i) with
          | Some (Exec.Done true) -> Some i
          | _ -> first (i + 1)
      in
      first 0
    in
    while !progress && !steps < max_steps do
      progress := false;
      let cands =
        List.filter
          (fun c -> (not (C.equal c !current)) && C.valid c)
          (C.candidates !current)
      in
      if jobs <= 1 then begin
        let rec try_list = function
          | [] -> ()
          | c :: rest ->
              incr tried;
              if still_fails c then begin
                current := c;
                incr steps;
                progress := true
              end
              else try_list rest
        in
        try_list cands
      end
      else begin
        let chunk_size = jobs * 2 in
        let rec scan = function
          | [] -> ()
          | cands -> (
              let chunk = take chunk_size cands in
              match eval_chunk chunk with
              | Some j ->
                  tried := !tried + j + 1;
                  current := List.nth chunk j;
                  incr steps;
                  progress := true
              | None ->
                  tried := !tried + List.length chunk;
                  scan (drop chunk_size cands))
        in
        scan cands
      end
    done;
    { value = !current; steps = !steps; tried = !tried }
end

module Kernel_shrink = Make (struct
  type t = Kernel.t

  (* kernels are plain data with no abstract fields: structural compare
     is exact here *)
  let equal a b = a = b
  let valid c = Kernel.validate c = Ok ()
  let candidates = kernel_candidates
end)

let kernel ?jobs ~still_fails k = Kernel_shrink.shrink ?jobs ~still_fails k

let program_candidates (p : Convex_isa.Program.t) =
  let body = Convex_isa.Program.body p in
  let n = List.length body in
  let with_body b =
    Convex_isa.Program.make ~name:(Convex_isa.Program.name p) b
  in
  let keep_one =
    if n <= 1 then [] else List.map (fun i -> with_body [ i ]) body
  in
  let drop_one =
    if n <= 1 then [] else List.init n (fun i -> with_body (drop_nth body i))
  in
  keep_one @ drop_one

module Program_shrink = Make (struct
  type t = Convex_isa.Program.t

  let equal a b = a = b
  let valid _ = true
  let candidates = program_candidates
end)

let program ?jobs ~still_fails p = Program_shrink.shrink ?jobs ~still_fails p
