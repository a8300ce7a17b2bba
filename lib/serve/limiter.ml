(* Token-bucket rate limiter for one connection: a frame bucket and a
   byte bucket, refilled continuously from an injectable monotonic
   clock so tests can drive time by hand.  Admission is all-or-nothing
   and never blocks: a frame the buckets cannot cover right now is
   rejected with a typed reason (the caller answers [throttled]), and
   no tokens are consumed for rejected frames, so a flood cannot starve
   itself into a deeper hole than the configured rate. *)

type config = {
  max_frames_per_s : float option;
  max_bytes_per_s : float option;
  burst_s : float;
}

let default_config =
  { max_frames_per_s = None; max_bytes_per_s = None; burst_s = 2.0 }

type bucket = {
  rate : float;  (* tokens per second *)
  capacity : float;
  mutable tokens : float;
  mutable last : float;  (* clock value of the last refill *)
}

type t = {
  now : unit -> float;
  frames : bucket option;
  bytes : bucket option;
}

let bucket ~now ~burst_s rate =
  let capacity = Float.max 1.0 (rate *. burst_s) in
  { rate; capacity; tokens = capacity; last = now () }

let make ?(config = default_config) ~now () =
  let burst_s = Float.max 0.001 config.burst_s in
  let positive = function Some r when r > 0.0 -> Some r | _ -> None in
  {
    now;
    frames = Option.map (bucket ~now ~burst_s) (positive config.max_frames_per_s);
    bytes = Option.map (bucket ~now ~burst_s) (positive config.max_bytes_per_s);
  }

let refill t b =
  let now = t.now () in
  let dt = Float.max 0.0 (now -. b.last) in
  b.last <- now;
  b.tokens <- Float.min b.capacity (b.tokens +. (dt *. b.rate))

type verdict = Admitted | Throttled of string

(* Check both buckets before consuming from either: a frame rejected by
   the byte bucket must not burn a frame token. *)
let admit t ~bytes =
  let need = function
    | None -> Ok ()
    | Some (b, cost, what, unit_) ->
        refill t b;
        if b.tokens >= cost then Ok ()
        else
          Error
            (Printf.sprintf
               "%s rate limit: %g %s/s exceeded; retry after %.0f ms" what
               b.rate unit_
               (Float.max 1.0 ((cost -. b.tokens) /. b.rate *. 1000.0)))
  in
  let frames = Option.map (fun b -> (b, 1.0, "frame", "frames")) t.frames in
  let bytes_b =
    Option.map (fun b -> (b, float_of_int bytes, "byte", "bytes")) t.bytes
  in
  match (need frames, need bytes_b) with
  | Ok (), Ok () ->
      Option.iter (fun b -> b.tokens <- b.tokens -. 1.0) t.frames;
      Option.iter
        (fun b -> b.tokens <- b.tokens -. float_of_int bytes)
        t.bytes;
      Admitted
  | Error why, _ | _, Error why -> Throttled why
