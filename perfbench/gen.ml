(* Seeded workload generators.  The seed is the only input: the same seed
   yields the same frame bytes, and the server only ever sees the frames. *)

module Json = Convex_serve.Json

type workload = Sim_stdio | Analyze_tcp | Replay_tcp

let workloads =
  [ ("sim-stdio", Sim_stdio); ("analyze-tcp", Analyze_tcp);
    ("replay-tcp", Replay_tcp) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* The ten vectorizable LFKs ([Lfk.Kernels.all]) and the four opt levels
   the protocol accepts. *)
let kernels = List.map (fun k -> k.Lfk.Kernel.id) Lfk.Kernels.all

let opts =
  List.map Fcc.Opt_level.name Fcc.Opt_level.[ v61; ideal; loads_first; packed ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let frame ~id items =
  Json.to_string (Json.Obj [ ("id", Json.Str id); ("batch", Json.Arr items) ])

let item ?opt ~op ~kernel machine =
  Json.Obj
    ([ ("op", Json.Str op);
       ("kernel", Json.Num (float_of_int kernel));
       ("machine", Json.Str machine) ]
    @ match opt with None -> [] | Some o -> [ ("opt", Json.Str o) ])

(* ---- unique simulate items ---------------------------------------- *)

(* Item cost depends mostly on the kernel, the opt level and the pipe
   counts, so those are dealt from decks rather than drawn: a deck is 27
   rounds of the 40 (kernel, opt) pairs, and over its rounds every pair
   meets each of the 27 (ld, add, mul) pipe combinations once.  Bank
   count and vector length are drawn, re-drawing until the (kernel,
   spec, opt) triple is new, so no frame or item cache can ever hit. *)
type sim_items = {
  rng : Random.State.t;
  seen : (string, unit) Hashtbl.t;
  mutable deck : (int * string * (int * int * int)) list;
}

let sim_items rng = { rng; seen = Hashtbl.create 4096; deck = [] }

let pairs =
  Array.of_list (List.concat_map (fun k -> List.map (fun o -> (k, o)) opts) kernels)

let pipe_combos = Array.init 27 (fun i -> (1 + (i / 9), 1 + (i / 3 mod 3), 1 + (i mod 3)))
let perm rng n = Array.of_list (shuffle rng (List.init n Fun.id))

let new_deck rng =
  let np = Array.length pairs and nc = Array.length pipe_combos in
  let pair = perm rng np and combo = perm rng nc in
  List.concat_map
    (fun r ->
      shuffle rng
        (List.init np (fun p ->
             let k, o = pairs.(pair.(p)) in
             (k, o, pipe_combos.(combo.((p + r) mod nc))))))
    (Array.to_list (perm rng nc))

let banks = [| 8; 16; 32; 64; 128 |]

let next_sim_item g =
  if g.deck = [] then g.deck <- new_deck g.rng;
  let kernel, opt, (ld, add, mul) = List.hd g.deck in
  g.deck <- List.tl g.deck;
  let rec fresh tries =
    if tries > 10_000 then failwith "simulate item space exhausted";
    let b = banks.(Random.State.int g.rng (Array.length banks)) in
    let vl = 64 + (8 * Random.State.int g.rng 25) in
    let spec =
      Printf.sprintf "c240;banks=%d;vl=%d;pipes.ld=%d;pipes.add=%d;pipes.mul=%d"
        b vl ld add mul
    in
    let triple = Printf.sprintf "%d|%s|%s" kernel spec opt in
    if Hashtbl.mem g.seen triple then fresh (tries + 1)
    else (
      Hashtbl.add g.seen triple ();
      spec)
  in
  item ~op:"simulate" ~kernel ~opt (fresh 0)

(* ---- Zipf ----------------------------------------------------------- *)

let zipf_weights n = Array.init n (fun r -> 1.0 /. float_of_int (r + 1))

(* Largest-remainder quotas: [total] draws split over ranks in proportion
   to their Zipf weights, so every block carries the same multiset. *)
let zipf_quota n total =
  let w = zipf_weights n in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let exact = Array.map (fun x -> x /. sum *. float_of_int total) w in
  let q = Array.map truncate exact in
  let short = total - Array.fold_left ( + ) 0 q in
  let by_rem =
    List.sort
      (fun a b -> compare (exact.(b) -. float q.(b)) (exact.(a) -. float q.(a)))
      (List.init n Fun.id)
  in
  List.iteri (fun i r -> if i < short then q.(r) <- q.(r) + 1) by_rem;
  List.concat (List.init n (fun r -> List.init q.(r) (fun _ -> r)))

let zipf_draw rng n =
  let w = zipf_weights n in
  let sum = Array.fold_left ( +. ) 0.0 w in
  let x = Random.State.float rng sum in
  let rec go r acc =
    if r = n - 1 then r
    else if x < acc +. w.(r) then r
    else go (r + 1) (acc +. w.(r))
  in
  go 0 0.0

(* ---- streams -------------------------------------------------------- *)

type stream = {
  warmup : string array;
      (** computed once before the set-ups, which restart the server over
          the journal they leave *)
  items_per_frame : int;
  block_frames : int;
      (** a whole deck or block: a timed phase of whole blocks carries the
          same mix of work whatever the seed *)
  next : unit -> string;  (** the next timed frame *)
  describe : unit -> string;  (** generator statistics so far *)
}

let sim_frame_items = 8

let sim_stdio rng =
  let g = sim_items rng in
  let n = ref 0 in
  let next () =
    incr n;
    frame ~id:(Printf.sprintf "s%06d" !n)
      (List.init sim_frame_items (fun _ -> next_sim_item g))
  in
  let deck_frames = Array.length pairs * Array.length pipe_combos / sim_frame_items in
  (* one deck warms the session; the timed frames continue the same
     stream, so their triples are new too *)
  let warmup = Array.init deck_frames (fun _ -> next ()) in
  {
    warmup;
    items_per_frame = sim_frame_items;
    block_frames = deck_frames;
    next;
    describe =
      (fun () ->
        Printf.sprintf "%d frames, %d distinct (kernel, spec, opt) triples" !n
          (Hashtbl.length g.seen));
  }

(* The analyze universe: ten LFKs x two machines, ranked in this fixed
   order for the Zipf weighting (rank 1 = lfk1 on the stock C-240). *)
let universe =
  Array.of_list
    (List.concat_map
       (fun k -> List.map (fun m -> (k, m)) [ "c240"; "c240;banks=64" ])
       kernels)

let block_frames = 64
let block_retries = 8

let analyze_tcp rng =
  let u = Array.length universe in
  let fresh = ref [||] and fresh_n = ref 0 in
  let pending = Queue.create () in
  let seen_items = Hashtbl.create 64 in
  let items = ref 0 and shared = ref 0 and frames = ref 0 and retries = ref 0 in
  let note op r =
    incr items;
    if Hashtbl.mem seen_items (op, r) then incr shared
    else Hashtbl.add seen_items (op, r) ()
  in
  let item_of op r =
    let k, m = universe.(r) in
    note op r;
    item ~op ~kernel:k m
  in
  (* One block: [block_frames - block_retries] fresh frames carrying the
     same Zipf quota of advise and hierarchy draws every block, in a
     seeded order, with retries of earlier fresh frames at seeded
     positions. *)
  let fill_block () =
    let nfresh = block_frames - block_retries in
    let adv = Array.of_list (shuffle rng (zipf_quota u nfresh)) in
    let hier = Array.of_list (shuffle rng (zipf_quota u (3 * nfresh))) in
    let slots =
      shuffle rng (List.init (block_frames - 1) (fun i -> i + 1))
      |> List.filteri (fun i _ -> i < block_retries)
    in
    let f = ref 0 in
    for pos = 0 to block_frames - 1 do
      if List.mem pos slots then Queue.add `Retry pending
      else (
        let j = !f in
        incr f;
        Queue.add (`Fresh (adv.(j), Array.sub hier (3 * j) 3)) pending)
    done
  in
  let next () =
    if Queue.is_empty pending then fill_block ();
    incr frames;
    match Queue.pop pending with
    | `Retry ->
        (* slot 0 is never a retry, so an earlier fresh frame exists *)
        incr retries;
        !fresh.(Random.State.int rng !fresh_n)
    | `Fresh (a, hs) ->
        let line =
          frame ~id:(Printf.sprintf "a%06d" !frames)
            (item_of "advise" a
            :: Array.to_list (Array.map (item_of "hierarchy") hs))
        in
        if !fresh_n = Array.length !fresh then
          fresh := Array.append !fresh (Array.make (max 64 !fresh_n) "");
        !fresh.(!fresh_n) <- line;
        incr fresh_n;
        line
  in
  (* one block warms the session; timed retries may repeat its frames *)
  let warmup = Array.init block_frames (fun _ -> next ()) in
  {
    warmup;
    items_per_frame = 4;
    block_frames;
    next;
    describe =
      (fun () ->
        Printf.sprintf
          "%d frames, retries %d/%d frames = %.3f, shared items %d/%d fresh \
           items = %.3f"
          !frames !retries !frames
          (float !retries /. float (max 1 !frames))
          !shared !items
          (float !shared /. float (max 1 !items)));
  }

let replay_frames = 64
let replay_frame_items = 32

let replay_tcp rng =
  let g = sim_items rng in
  let warmup =
    Array.init replay_frames (fun i ->
        frame ~id:(Printf.sprintf "w%02d" i)
          (List.init replay_frame_items (fun _ -> next_sim_item g)))
  in
  let n = ref 0 in
  {
    warmup;
    items_per_frame = replay_frame_items;
    block_frames = 2000;
    next =
      (fun () ->
        incr n;
        warmup.(zipf_draw rng replay_frames));
    describe =
      (fun () ->
        Printf.sprintf "%d warm-up frames of %d items, %d timed retries"
          replay_frames replay_frame_items !n);
  }

let stream w ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash (name w) |] in
  match w with
  | Sim_stdio -> sim_stdio rng
  | Analyze_tcp -> analyze_tcp rng
  | Replay_tcp -> replay_tcp rng
