open Convex_isa
open Convex_vpsim
module Ir = Lfk.Ir
module Kernel = Lfk.Kernel

exception Register_pressure of string

type t = {
  kernel : Kernel.t;
  opt : Opt_level.t;
  mode : Job.mode;
  verdict : Vectorizer.verdict;
  program : Program.t;
  job : Job.t;
  sregs : (int * float) list;
  flops_per_iteration : int;
  scalar_map : (string * int) list;
  spilled_scalars : string list;
}

let scalar_pool_array = "SCAL"

(* ------------------------------------------------------------------ *)
(* Scalar-register allocation                                          *)
(* ------------------------------------------------------------------ *)

type scalar_plan = {
  map : (string * int) list;  (* name -> s-register *)
  spilled : (string * int) list;  (* name -> constant-pool slot *)
  acc_reg : int option;
  partial_reg : int option;
  spill_temp : int option;
  initial : (int * float) list;
}

let rec expr_scalar_uses acc = function
  | Ir.Scalar s -> s :: acc
  | Ir.Load _ | Ir.Temp _ -> acc
  | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
      expr_scalar_uses (expr_scalar_uses acc a) b
  | Ir.Neg a | Ir.Sqrt a -> expr_scalar_uses acc a
  | Ir.Gather { index; _ } -> expr_scalar_uses acc index
  | Ir.Select { a; b; if_true; if_false; _ } ->
      expr_scalar_uses
        (expr_scalar_uses (expr_scalar_uses (expr_scalar_uses acc a) b)
           if_true)
        if_false

let plan_scalars (k : Kernel.t) =
  let uses = Hashtbl.create 16 in
  let order = ref [] in
  let note s =
    if not (Hashtbl.mem uses s) then order := s :: !order;
    Hashtbl.replace uses s (1 + Option.value ~default:0 (Hashtbl.find_opt uses s))
  in
  List.iter
    (fun stmt ->
      let uses =
        match stmt with
        | Ir.Let (_, e) | Ir.Store (_, e) -> expr_scalar_uses [] e
        | Ir.Scatter { index; value; _ } ->
            expr_scalar_uses (expr_scalar_uses [] index) value
        | Ir.Reduce { rhs; _ } -> expr_scalar_uses [] rhs
      in
      List.iter note (List.rev uses))
    k.body;
  (match k.acc with
  | Some { scale_by = Some s; _ } -> note s
  | _ -> ());
  let names =
    List.stable_sort
      (fun a b -> compare (Hashtbl.find uses b) (Hashtbl.find uses a))
      (List.rev !order)
  in
  let reduction = Kernel.has_reduction k in
  let acc_reg = if reduction then Some (Reg.scalar_count - 1) else None in
  let partial_reg = if reduction then Some (Reg.scalar_count - 2) else None in
  let budget = Reg.scalar_count - (if reduction then 2 else 0) in
  let fits = List.length names <= budget in
  let avail = if fits then budget else budget - 1 in
  let kept = List.filteri (fun i _ -> i < avail) names in
  let spilled_names = List.filteri (fun i _ -> i >= avail) names in
  let spill_temp = if spilled_names = [] then None else Some avail in
  let map = List.mapi (fun i s -> (s, i)) kept in
  let spilled = List.mapi (fun i s -> (s, i)) spilled_names in
  let value s = List.assoc s k.scalars in
  let initial = List.map (fun (s, r) -> (r, value s)) map in
  { map; spilled; acc_reg; partial_reg; spill_temp; initial }

(* ------------------------------------------------------------------ *)
(* Vector code generation                                              *)
(* ------------------------------------------------------------------ *)

(* Reference key for the load cache.  Under Reload_shifted every distinct
   textual reference is its own key; under Stream_reuse all references of
   one reuse stream share the key of the stream's lowest-offset member. *)
let make_keyer (opt : Opt_level.t) (body : Ir.stmt list) =
  match opt.reuse with
  | Opt_level.Reload_shifted -> fun (r : Ir.ref_) -> r
  | Opt_level.Stream_reuse ->
      let refs = Ir.load_refs body in
      let cluster_rep = Hashtbl.create 16 in
      (* group refs by stream, clusters split on gaps wider than the reuse
         window (same rule as Ir.ma_load_count) *)
      let by_stream = Hashtbl.create 16 in
      List.iter
        (fun (r : Ir.ref_) ->
          let key =
            if r.scale = 0 then (r.array, 0, r.offset)
            else
              ( r.array,
                r.scale,
                ((r.offset mod r.scale) + abs r.scale) mod abs r.scale )
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_stream key) in
          Hashtbl.replace by_stream key (r :: prev))
        refs;
      Hashtbl.iter
        (fun (_, scale, _) members ->
          let window = 8 * max 1 (abs scale) in
          let sorted =
            List.sort (fun (a : Ir.ref_) b -> compare a.offset b.offset) members
          in
          let rec go rep = function
            | [] -> ()
            | (r : Ir.ref_) :: rest ->
                let rep =
                  match rep with
                  | Some (p : Ir.ref_) when r.offset - p.offset <= window ->
                      Hashtbl.replace cluster_rep r (Hashtbl.find cluster_rep p);
                      Some r
                  | _ ->
                      Hashtbl.replace cluster_rep r r;
                      Some r
                in
                go rep rest
          in
          go None sorted)
        by_stream;
      fun r -> match Hashtbl.find_opt cluster_rep r with
        | Some rep -> rep
        | None -> r

type opnd = OV of int * bool (* vreg index, free after use *) | OS of int

type ctx = {
  opt : Opt_level.t;
  scal : scalar_plan;
  keyer : Ir.ref_ -> Ir.ref_;
  mutable out : Instr.t list; (* reversed *)
  mutable free : int list;
  ref_remaining : (Ir.ref_, int ref) Hashtbl.t;
  ref_reg : (Ir.ref_, int) Hashtbl.t;
  temp_info : (string, int * int ref) Hashtbl.t;
  mutable pinned : int list;
}

let emit ctx i = ctx.out <- i :: ctx.out

let mem_of (r : Ir.ref_) : Instr.mem =
  { array = r.array; offset = r.offset; stride = r.scale }

let alloc ctx =
  match ctx.free with
  | r :: rest ->
      ctx.free <- rest;
      r
  | [] -> (
      (* evict a cached, unpinned load: it can be rematerialised *)
      let victim =
        Hashtbl.fold
          (fun key reg acc ->
            match acc with
            | Some _ -> acc
            | None -> if List.mem reg ctx.pinned then None else Some (key, reg))
          ctx.ref_reg None
      in
      match victim with
      | Some (key, reg) ->
          Hashtbl.remove ctx.ref_reg key;
          reg
      | None ->
          raise
            (Register_pressure
               "more than eight live vector values with nothing to evict"))

(* FIFO discipline: rotate through the register file rather than reusing
   the register just freed.  Immediate reuse packs a chime's instructions
   onto one register pair and violates the two-read/one-write port limits,
   splitting chimes the hardware could have merged — the Convex compiler
   rotates registers exactly to avoid this. *)
let free_reg ctx r =
  if not (List.mem r ctx.free) then ctx.free <- ctx.free @ [ r ]

let free_opnd ctx = function
  | OV (r, true) -> free_reg ctx r
  | OV (_, false) | OS _ -> ()

let rec depth = function
  | Ir.Load _ -> 1
  | Ir.Scalar _ | Ir.Temp _ -> 0
  | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
      1 + max (depth a) (depth b)
  | Ir.Neg a | Ir.Sqrt a -> 1 + depth a
  | Ir.Gather { index; _ } -> 1 + depth index
  | Ir.Select { a; b; if_true; if_false; _ } ->
      1 + max (max (depth a) (depth b)) (max (depth if_true) (depth if_false))

let scalar_opnd ctx name =
  match List.assoc_opt name ctx.scal.map with
  | Some r -> OS r
  | None -> (
      match
        (List.assoc_opt name ctx.scal.spilled, ctx.scal.spill_temp)
      with
      | Some slot, Some temp ->
          emit ctx
            (Instr.Sld
               {
                 dst = Reg.s temp;
                 src = { array = scalar_pool_array; offset = slot; stride = 0 };
               });
          OS temp
      | _ ->
          invalid_arg (Printf.sprintf "Compiler: unallocated scalar %s" name))

let load_ref ctx (r : Ir.ref_) =
  let key = ctx.keyer r in
  let remaining =
    match Hashtbl.find_opt ctx.ref_remaining key with
    | Some c -> c
    | None -> invalid_arg "Compiler: load of uncounted reference"
  in
  match Hashtbl.find_opt ctx.ref_reg key with
  | Some reg ->
      decr remaining;
      if !remaining = 0 then begin
        Hashtbl.remove ctx.ref_reg key;
        OV (reg, true)
      end
      else OV (reg, false)
  | None ->
      let reg = alloc ctx in
      emit ctx (Instr.Vld { dst = Reg.v reg; src = mem_of key });
      decr remaining;
      if !remaining > 0 then begin
        Hashtbl.replace ctx.ref_reg key reg;
        OV (reg, false)
      end
      else OV (reg, true)

(* A [let] bound directly to a load must own its register: when the ref
   stays cached for later uses, load a private copy instead of aliasing
   the cache (whose owner frees the register on its own schedule).  The
   cache is never stale — stores invalidate it per array — so the reload
   reads the identical value. *)
let load_ref_owned ctx (r : Ir.ref_) =
  let key = ctx.keyer r in
  let remaining =
    match Hashtbl.find_opt ctx.ref_remaining key with
    | Some c -> c
    | None -> invalid_arg "Compiler: load of uncounted reference"
  in
  decr remaining;
  match Hashtbl.find_opt ctx.ref_reg key with
  | Some reg when !remaining = 0 ->
      Hashtbl.remove ctx.ref_reg key;
      OV (reg, true)
  | Some _ | None ->
      let reg = alloc ctx in
      emit ctx (Instr.Vld { dst = Reg.v reg; src = mem_of key });
      OV (reg, true)

let vsrc_of = function
  | OV (r, _) -> Instr.Vr (Reg.v r)
  | OS r -> Instr.Sr (Reg.s r)

let with_pin ctx opnd f =
  match opnd with
  | OV (r, _) ->
      ctx.pinned <- r :: ctx.pinned;
      let res = f () in
      ctx.pinned <- List.tl ctx.pinned;
      res
  | OS _ -> f ()

let rec gen ctx (e : Ir.expr) : opnd =
  match e with
  | Load r -> load_ref ctx r
  | Scalar s -> scalar_opnd ctx s
  | Temp name -> (
      match Hashtbl.find_opt ctx.temp_info name with
      | Some (reg, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove ctx.temp_info name;
            OV (reg, true)
          end
          else OV (reg, false)
      | None -> invalid_arg (Printf.sprintf "Compiler: unbound temp %s" name))
  | Add (a, b) -> gen_bin ctx Instr.Add a b
  | Sub (a, b) -> gen_bin ctx Instr.Sub a b
  | Mul (a, b) -> gen_bin ctx Instr.Mul a b
  | Div (a, b) -> gen_bin ctx Instr.Div a b
  | Neg a -> (
      match gen ctx a with
      | OV (src, freeable) ->
          if freeable then free_reg ctx src;
          let dst = alloc ctx in
          emit ctx (Instr.Vneg { dst = Reg.v dst; src = Reg.v src });
          OV (dst, true)
      | OS _ -> invalid_arg "Compiler: negation of a scalar operand")
  | Sqrt a -> (
      match gen ctx a with
      | OV (src, freeable) ->
          if freeable then free_reg ctx src;
          let dst = alloc ctx in
          emit ctx (Instr.Vsqrt { dst = Reg.v dst; src = Reg.v src });
          OV (dst, true)
      | OS _ -> invalid_arg "Compiler: square root of a scalar operand")
  | Select { op; a; b; if_true; if_false } ->
      let cmp_op =
        match op with
        | Ir.CLt -> Instr.Lt
        | Ir.CLe -> Instr.Le
        | Ir.CEq -> Instr.Eq
        | Ir.CNe -> Instr.Ne
      in
      let oa = gen ctx a in
      let ob = with_pin ctx oa (fun () -> gen ctx b) in
      (match oa with
      | OV (src1, _) ->
          emit ctx (Instr.Vcmp { op = cmp_op; src1 = Reg.v src1; src2 = vsrc_of ob })
      | OS _ -> invalid_arg "Compiler: select condition must compare a vector");
      free_opnd ctx oa;
      free_opnd ctx ob;
      let ot = gen ctx if_true in
      let of_ = with_pin ctx ot (fun () -> gen ctx if_false) in
      free_opnd ctx ot;
      free_opnd ctx of_;
      let dst = alloc ctx in
      emit ctx
        (Instr.Vmerge
           { dst = Reg.v dst; src_true = vsrc_of ot; src_false = vsrc_of of_ });
      OV (dst, true)
  | Gather { array; offset; index } -> (
      match gen ctx index with
      | OV (ix, freeable) ->
          if freeable then free_reg ctx ix;
          let dst = alloc ctx in
          emit ctx
            (Instr.Vgather
               {
                 dst = Reg.v dst;
                 base = { array; offset; stride = 1 };
                 index = Reg.v ix;
               });
          OV (dst, true)
      | OS _ -> invalid_arg "Compiler: scalar gather index")

and gen_bin ctx op a b =
  let oa, ob =
    if depth b > depth a then
      let ob = gen ctx b in
      let oa = with_pin ctx ob (fun () -> gen ctx a) in
      (oa, ob)
    else
      let oa = gen ctx a in
      let ob = with_pin ctx oa (fun () -> gen ctx b) in
      (oa, ob)
  in
  free_opnd ctx oa;
  free_opnd ctx ob;
  let dst = alloc ctx in
  emit ctx (Instr.Vbin { op; dst = Reg.v dst; src1 = vsrc_of oa; src2 = vsrc_of ob });
  OV (dst, true)

(* count per-iteration uses of every reference key and temp *)
let count_uses keyer (body : Ir.stmt list) =
  let refs = Hashtbl.create 16 and temps = Hashtbl.create 16 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rec walk = function
    | Ir.Load r -> bump refs (keyer r)
    | Ir.Scalar _ -> ()
    | Ir.Temp t -> bump temps t
    | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
        walk a;
        walk b
    | Ir.Neg a | Ir.Sqrt a -> walk a
    | Ir.Gather { index; _ } -> walk index
    | Ir.Select { a; b; if_true; if_false; _ } ->
        walk a;
        walk b;
        walk if_true;
        walk if_false
  in
  List.iter
    (function
      | Ir.Let (_, e) | Ir.Store (_, e) -> walk e
      | Ir.Scatter { index; value; _ } ->
          walk index;
          walk value
      | Ir.Reduce { rhs; _ } -> walk rhs)
    body;
  (refs, temps)

let rec new_refs_of_expr ctx acc = function
  | Ir.Load r ->
      let key = ctx.keyer r in
      if Hashtbl.mem ctx.ref_reg key || List.exists (Ir.equal_ref_ key) acc
      then acc
      else key :: acc
  | Ir.Scalar _ | Ir.Temp _ -> acc
  | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
      new_refs_of_expr ctx (new_refs_of_expr ctx acc a) b
  | Ir.Neg a | Ir.Sqrt a -> new_refs_of_expr ctx acc a
  | Ir.Gather { index; _ } -> new_refs_of_expr ctx acc index
  | Ir.Select { a; b; if_true; if_false; _ } ->
      new_refs_of_expr ctx
        (new_refs_of_expr ctx
           (new_refs_of_expr ctx (new_refs_of_expr ctx acc a) b)
           if_true)
        if_false

(* Loads_first: hoist a statement's fresh loads ahead of its arithmetic,
   while register pressure allows *)
let hoist_loads ctx e =
  let fresh = List.rev (new_refs_of_expr ctx [] e) in
  List.iter
    (fun key ->
      if List.length ctx.free > 2 && not (Hashtbl.mem ctx.ref_reg key) then begin
        let reg = alloc ctx in
        emit ctx (Instr.Vld { dst = Reg.v reg; src = mem_of key });
        Hashtbl.replace ctx.ref_reg key reg
      end)
    fresh

let gen_stmt ctx plan stmt =
  let prepare e =
    if ctx.opt.Opt_level.schedule = Opt_level.Loads_first then
      hoist_loads ctx e
  in
  match stmt with
  | Ir.Let (name, e) -> (
      prepare e;
      let o =
        match e with Ir.Load r -> load_ref_owned ctx r | _ -> gen ctx e
      in
      match o with
      | OV (reg, freeable) ->
          if not freeable then
            invalid_arg
              (Printf.sprintf
                 "Compiler: temp %s aliases a shared register" name);
          let uses =
            match Hashtbl.find_opt (snd plan) name with
            | Some n -> n
            | None -> 0
          in
          if uses = 0 then free_reg ctx reg
          else Hashtbl.replace ctx.temp_info name (reg, ref uses)
      | OS _ -> invalid_arg "Compiler: scalar-valued temp")
  | Ir.Store (r, e) -> (
      prepare e;
      match gen ctx e with
      | OV (reg, freeable) ->
          emit ctx (Instr.Vst { src = Reg.v reg; dst = mem_of r });
          if freeable then free_reg ctx reg;
          (* storing may invalidate cached loads of the same array *)
          let stale =
            Hashtbl.fold
              (fun (key : Ir.ref_) _ acc ->
                if String.equal key.array r.array then key :: acc else acc)
              ctx.ref_reg []
          in
          List.iter
            (fun key ->
              let reg = Hashtbl.find ctx.ref_reg key in
              Hashtbl.remove ctx.ref_reg key;
              ignore reg
              (* the value keeps its register until its uses run out; we
                 only stop treating it as a valid copy of memory for
                 future loads — precise enough for the kernels at hand,
                 where no reference is read again after an overlapping
                 store *))
            stale
      | OS _ -> invalid_arg "Compiler: scalar-valued store")
  | Ir.Scatter { array; offset; index; value } -> (
      prepare value;
      let ov = gen ctx value in
      let oi = with_pin ctx ov (fun () -> gen ctx index) in
      match (ov, oi) with
      | OV (src, f1), OV (ix, f2) ->
          emit ctx
            (Instr.Vscatter
               {
                 src = Reg.v src;
                 base = { array; offset; stride = 1 };
                 index = Reg.v ix;
               });
          if f1 then free_reg ctx src;
          if f2 then free_reg ctx ix
      | _ -> invalid_arg "Compiler: scalar operand in scatter")
  | Ir.Reduce { neg; rhs } -> (
      prepare rhs;
      let partial = Option.get ctx.scal.partial_reg
      and acc = Option.get ctx.scal.acc_reg in
      match gen ctx rhs with
      | OV (reg, freeable) ->
          emit ctx (Instr.Vsum { dst = Reg.s partial; src = Reg.v reg });
          if freeable then free_reg ctx reg;
          emit ctx
            (Instr.Sbin
               {
                 op = (if neg then Instr.Sub else Instr.Add);
                 dst = Reg.s acc;
                 src1 = Reg.s acc;
                 src2 = Reg.s partial;
               })
      | OS _ -> invalid_arg "Compiler: scalar-valued reduction")

(* Oops: gen_stmt Store keeps the register reserved if the value was a
   cached load whose uses were not exhausted; that path frees through the
   normal refcounting when remaining uses are consumed. *)

(* Copy propagation: a [let] whose right-hand side is a bare temp or
   scalar binds no new value, only a new name for a register some other
   owner frees — lowering it directly would alias a shared register.
   Substitute such bindings into their uses and drop them (rebinding is
   rejected by [Ir.validate], so substitution cannot capture). *)
let copy_propagate (body : Ir.stmt list) =
  let env = Hashtbl.create 4 in
  let rec subst (e : Ir.expr) : Ir.expr =
    match e with
    | Ir.Temp n -> (
        match Hashtbl.find_opt env n with Some e' -> e' | None -> e)
    | Ir.Load _ | Ir.Scalar _ -> e
    | Ir.Add (a, b) -> Ir.Add (subst a, subst b)
    | Ir.Sub (a, b) -> Ir.Sub (subst a, subst b)
    | Ir.Mul (a, b) -> Ir.Mul (subst a, subst b)
    | Ir.Div (a, b) -> Ir.Div (subst a, subst b)
    | Ir.Neg a -> Ir.Neg (subst a)
    | Ir.Sqrt a -> Ir.Sqrt (subst a)
    | Ir.Gather g -> Ir.Gather { g with index = subst g.index }
    | Ir.Select s ->
        Ir.Select
          {
            s with
            a = subst s.a;
            b = subst s.b;
            if_true = subst s.if_true;
            if_false = subst s.if_false;
          }
  in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Ir.Let (name, e) -> (
          match subst e with
          | (Ir.Temp _ | Ir.Scalar _) as alias ->
              Hashtbl.replace env name alias;
              None
          | e' -> Some (Ir.Let (name, e')))
      | Ir.Store (r, e) -> Some (Ir.Store (r, subst e))
      | Ir.Scatter s ->
          Some
            (Ir.Scatter { s with index = subst s.index; value = subst s.value })
      | Ir.Reduce r -> Some (Ir.Reduce { r with rhs = subst r.rhs }))
    body

let lower_body (opt : Opt_level.t) scal (k : Kernel.t) =
  let keyer = make_keyer opt k.body in
  let refs, temps = count_uses keyer k.body in
  let ctx =
    {
      opt;
      scal;
      keyer;
      out = [];
      free = List.init Reg.vector_count Fun.id;
      ref_remaining = Hashtbl.create 16;
      ref_reg = Hashtbl.create 16;
      temp_info = Hashtbl.create 16;
      pinned = [];
    }
  in
  Hashtbl.iter (fun key n -> Hashtbl.add ctx.ref_remaining key (ref n)) refs;
  List.iter (fun stmt -> gen_stmt ctx (refs, temps) stmt) k.body;
  List.rev ctx.out

(* ------------------------------------------------------------------ *)
(* Scalar code generation (non-vectorizable loops, C-240 scalar mode)  *)
(* ------------------------------------------------------------------ *)

type sctx = {
  s_scal : scalar_plan;
  mutable s_out : Instr.t list; (* reversed *)
  mutable s_free : int list;
  s_temp : (string, int * int ref) Hashtbl.t;
}

let semit ctx i = ctx.s_out <- i :: ctx.s_out

let salloc ctx =
  match ctx.s_free with
  | r :: rest ->
      ctx.s_free <- rest;
      r
  | [] ->
      raise (Register_pressure "scalar registers exhausted in scalar mode")

let sfree ctx r =
  if not (List.mem r ctx.s_free) then ctx.s_free <- ctx.s_free @ [ r ]

let sfree_opnd ctx (r, freeable) = if freeable then sfree ctx r

(* returns (scalar register, free after use) *)
let rec gen_scalar ctx (e : Ir.expr) : int * bool =
  match e with
  | Load r ->
      let dst = salloc ctx in
      semit ctx (Instr.Sld { dst = Reg.s dst; src = mem_of r });
      (dst, true)
  | Scalar name -> (
      match List.assoc_opt name ctx.s_scal.map with
      | Some r -> (r, false)
      | None -> (
          match
            (List.assoc_opt name ctx.s_scal.spilled, ctx.s_scal.spill_temp)
          with
          | Some slot, Some temp ->
              semit ctx
                (Instr.Sld
                   {
                     dst = Reg.s temp;
                     src =
                       { array = scalar_pool_array; offset = slot; stride = 0 };
                   });
              (temp, false)
          | _ ->
              invalid_arg
                (Printf.sprintf "Compiler: unallocated scalar %s" name)))
  | Temp name -> (
      match Hashtbl.find_opt ctx.s_temp name with
      | Some (reg, remaining) ->
          decr remaining;
          if !remaining = 0 then begin
            Hashtbl.remove ctx.s_temp name;
            (reg, true)
          end
          else (reg, false)
      | None -> invalid_arg (Printf.sprintf "Compiler: unbound temp %s" name))
  | Add (a, b) -> gen_scalar_bin ctx Instr.Add a b
  | Sub (a, b) -> gen_scalar_bin ctx Instr.Sub a b
  | Mul (a, b) -> gen_scalar_bin ctx Instr.Mul a b
  | Div (a, b) -> gen_scalar_bin ctx Instr.Div a b
  | Sqrt _ ->
      invalid_arg
        "Compiler: no scalar square-root instruction; this loop cannot \
         run in scalar mode"
  | Gather _ ->
      invalid_arg
        "Compiler: indexed access is not supported in scalar mode"
  | Select _ ->
      invalid_arg
        "Compiler: element-wise select is not supported in scalar mode"
  | Neg a ->
      (* no scalar negate instruction: 0 - a, with the zero materialised
         by subtracting a scratch register from itself *)
      let oa = gen_scalar ctx a in
      let zero = salloc ctx in
      semit ctx
        (Instr.Sbin
           { op = Instr.Sub; dst = Reg.s zero; src1 = Reg.s zero;
             src2 = Reg.s zero });
      sfree_opnd ctx oa;
      let dst = salloc ctx in
      semit ctx
        (Instr.Sbin
           { op = Instr.Sub; dst = Reg.s dst; src1 = Reg.s zero;
             src2 = Reg.s (fst oa) });
      sfree ctx zero;
      (dst, true)

and gen_scalar_bin ctx op a b =
  let oa, ob =
    if depth b > depth a then
      let ob = gen_scalar ctx b in
      let oa = gen_scalar ctx a in
      (oa, ob)
    else
      let oa = gen_scalar ctx a in
      let ob = gen_scalar ctx b in
      (oa, ob)
  in
  sfree_opnd ctx oa;
  sfree_opnd ctx ob;
  let dst = salloc ctx in
  semit ctx
    (Instr.Sbin
       { op; dst = Reg.s dst; src1 = Reg.s (fst oa); src2 = Reg.s (fst ob) });
  (dst, true)

let lower_scalar_body scal (k : Kernel.t) =
  let reserved =
    List.map snd scal.map
    @ List.filter_map Fun.id [ scal.acc_reg; scal.partial_reg; scal.spill_temp ]
  in
  let ctx =
    {
      s_scal = scal;
      s_out = [];
      s_free =
        List.filter
          (fun r -> not (List.mem r reserved))
          (List.init Reg.scalar_count Fun.id);
      s_temp = Hashtbl.create 8;
    }
  in
  let temp_uses = Hashtbl.create 8 in
  let rec count_temps = function
    | Ir.Temp t ->
        Hashtbl.replace temp_uses t
          (1 + Option.value ~default:0 (Hashtbl.find_opt temp_uses t))
    | Ir.Load _ | Ir.Scalar _ -> ()
    | Ir.Add (a, b) | Ir.Sub (a, b) | Ir.Mul (a, b) | Ir.Div (a, b) ->
        count_temps a;
        count_temps b
    | Ir.Neg a | Ir.Sqrt a -> count_temps a
    | Ir.Gather { index; _ } -> count_temps index
    | Ir.Select { a; b; if_true; if_false; _ } ->
        count_temps a;
        count_temps b;
        count_temps if_true;
        count_temps if_false
  in
  List.iter
    (function
      | Ir.Let (_, e) | Ir.Store (_, e) -> count_temps e
      | Ir.Scatter { index; value; _ } ->
          count_temps index;
          count_temps value
      | Ir.Reduce { rhs; _ } -> count_temps rhs)
    k.body;
  List.iter
    (fun stmt ->
      match stmt with
      | Ir.Let (name, e) ->
          let reg, freeable = gen_scalar ctx e in
          if not freeable then
            invalid_arg
              (Printf.sprintf "Compiler: temp %s aliases a shared register"
                 name);
          let uses =
            Option.value ~default:0 (Hashtbl.find_opt temp_uses name)
          in
          if uses = 0 then sfree ctx reg
          else Hashtbl.replace ctx.s_temp name (reg, ref uses)
      | Ir.Store (r, e) ->
          let o = gen_scalar ctx e in
          semit ctx (Instr.Sst { src = Reg.s (fst o); dst = mem_of r });
          sfree_opnd ctx o
      | Ir.Scatter _ ->
          invalid_arg
            "Compiler: indexed access is not supported in scalar mode"
      | Ir.Reduce { neg; rhs } ->
          let acc =
            match scal.acc_reg with
            | Some r -> r
            | None -> invalid_arg "Compiler: reduction without accumulator"
          in
          let o = gen_scalar ctx rhs in
          semit ctx
            (Instr.Sbin
               {
                 op = (if neg then Instr.Sub else Instr.Add);
                 dst = Reg.s acc;
                 src1 = Reg.s acc;
                 src2 = Reg.s (fst o);
               });
          sfree_opnd ctx o)
    k.body;
  List.rev ctx.s_out

(* ------------------------------------------------------------------ *)
(* Segment prologue / epilogue (reduction protocol)                    *)
(* ------------------------------------------------------------------ *)

let acc_prologue scal (k : Kernel.t) =
  match (k.acc, scal.acc_reg) with
  | None, _ | _, None -> []
  | Some spec, Some acc -> (
      match spec.init with
      | Kernel.Zero ->
          [ Instr.Sbin { op = Instr.Sub; dst = Reg.s acc; src1 = Reg.s acc;
                         src2 = Reg.s acc } ]
      | Kernel.Load_from r -> [ Instr.Sld { dst = Reg.s acc; src = mem_of r } ])

let acc_epilogue scal (k : Kernel.t) =
  match (k.acc, scal.acc_reg) with
  | None, _ | _, None -> []
  | Some spec, Some acc ->
      let scale =
        match spec.scale_by with
        | None -> []
        | Some name -> (
            match List.assoc_opt name scal.map with
            | Some r ->
                [ Instr.Sbin { op = Instr.Mul; dst = Reg.s acc;
                               src1 = Reg.s acc; src2 = Reg.s r } ]
            | None -> invalid_arg "Compiler: scale_by scalar not in registers")
      in
      let store =
        match spec.store_to with
        | None -> []
        | Some r -> [ Instr.Sst { src = Reg.s acc; dst = mem_of r } ]
      in
      scale @ store

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let loop_tail =
  [
    Instr.Sop { name = "add.a" };
    Instr.Sop { name = "add.s" };
    Instr.Sop { name = "lt.s" };
    Instr.Sbranch;
  ]

let compile_fresh ~opt ~force_scalar (k : Kernel.t) =
  (match Kernel.validate k with
  | Ok () -> ()
  | Error e ->
      invalid_arg (Printf.sprintf "Compiler.compile: invalid kernel %s: %s"
                     k.name e));
  let scal = plan_scalars k in
  let verdict = Vectorizer.analyze k in
  let mode =
    if force_scalar || verdict <> Vectorizer.Vectorizable then Job.Scalar
    else Job.Vector
  in
  let nk = { k with Kernel.body = copy_propagate k.body } in
  let body, name =
    match mode with
    | Job.Vector ->
        let lowered = lower_body opt scal nk in
        let lowered =
          match opt.Opt_level.schedule with
          | Opt_level.Packed -> (
              (* an unpackable body (cyclic dependence graph, scheduler
                 no-progress) compiles in lowering order rather than
                 aborting the whole kernel *)
              match
                Schedule.pack ~machine:Convex_machine.Machine.c240 lowered
              with
              | Ok packed -> packed
              | Error _ -> lowered)
          | Opt_level.Depth_first | Opt_level.Loads_first -> lowered
        in
        ( (Instr.Smovvl :: lowered) @ loop_tail,
          Printf.sprintf "%s.%s" k.name (Opt_level.name opt) )
    | Job.Scalar -> (lower_scalar_body scal nk @ loop_tail, k.name ^ ".scalar")
  in
  let program = Program.make ~name body in
  let outer =
    List.init k.outer_ops (fun _ -> Instr.Sop { name = "outer" })
  in
  let prologue = outer @ acc_prologue scal k in
  let epilogue = acc_epilogue scal k in
  let segments =
    List.map
      (fun (s : Kernel.segment_spec) ->
        Job.segment ~base:s.base ~shifts:s.shifts ~prologue ~epilogue s.length)
      k.segments
  in
  let job = Job.make ~mode ~name ~body ~segments () in
  {
    kernel = k;
    opt;
    mode;
    verdict;
    program;
    job;
    sregs = scal.initial;
    flops_per_iteration = Ir.flops k.body;
    scalar_map = scal.map;
    spilled_scalars = List.map fst scal.spilled;
  }

(* The library kernels compile once per process.  A served item names
   its kernel by LFK number, so the same few (kernel, opt) pairs recur
   for every item; a compiled [t] holds no mutable state, so every
   domain can share the first one built.  Only the records
   [Lfk.Kernels.find] returns are recognized, by physical identity: a
   kernel built any other way (a Codec decode, a fuzz case, an edited
   copy) compiles fresh.  One entry per (LFK number, opt record,
   force_scalar), at most 12 x 6 x 2, filled on first use and never
   evicted. *)
let memo : (int * Opt_level.t * bool, t) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()

let is_library (k : Kernel.t) =
  match Lfk.Kernels.find k.id with
  | library -> library == k
  | exception Not_found -> false

let compile ?(opt = Opt_level.v61) ?(force_scalar = false) (k : Kernel.t) =
  if not (is_library k) then compile_fresh ~opt ~force_scalar k
  else
    let key = (k.id, opt, force_scalar) in
    match Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key) with
    | Some c -> c
    | None ->
        (* compiled outside the lock; a racing twin's equal result may
           land first, and then every caller shares that one *)
        let c = compile_fresh ~opt ~force_scalar k in
        Mutex.protect memo_mutex (fun () ->
            match Hashtbl.find_opt memo key with
            | Some first -> first
            | None ->
                Hashtbl.replace memo key c;
                c)

let scalar_pool (c : t) =
  if c.spilled_scalars = [] then None
  else Some (scalar_pool_array, List.length c.spilled_scalars)

let initial_store (c : t) =
  let base = Lfk.Data.store_of c.kernel in
  let existing =
    List.map (fun name -> (name, Store.get base name)) (Store.arrays base)
  in
  let pool =
    if c.spilled_scalars = [] then []
    else
      [
        ( scalar_pool_array,
          Array.of_list
            (List.map (fun s -> List.assoc s c.kernel.scalars)
               c.spilled_scalars) );
      ]
  in
  Store.create (existing @ pool)

let initial_sregs c = c.sregs

let run_interp (c : t) =
  if not (Opt_level.functional c.opt) then
    invalid_arg "Compiler.run_interp: optimization level is not functional";
  let store = initial_store c in
  let sregs = List.map (fun (i, v) -> (i, v)) c.sregs in
  let (_ : float array) = Interp.run_exn ~sregs ~store c.job in
  store

let listing (c : t) = Asm.print_program c.program
