(** Per-connection token-bucket rate limits: frames per second and
    bytes per second, with [burst_s] seconds of burst headroom.  The
    clock is injected so tests can advance time deterministically.
    Admission never blocks and never consumes tokens for a rejected
    frame — the caller answers with a typed [throttled] error and the
    client may retry after the quoted backoff. *)

type config = {
  max_frames_per_s : float option;  (** [None] = unlimited *)
  max_bytes_per_s : float option;  (** [None] = unlimited *)
  burst_s : float;  (** bucket capacity in seconds of rate *)
}

val default_config : config
(** Unlimited on both axes, 2 s of burst. *)

type t

val make : ?config:config -> now:(unit -> float) -> unit -> t
(** Buckets start full.  Non-positive rates mean unlimited. *)

type verdict = Admitted | Throttled of string

val admit : t -> bytes:int -> verdict
(** Admit one frame of [bytes] bytes, consuming one frame token and
    [bytes] byte tokens — or reject with a human-readable reason quoting
    the exceeded rate and a suggested retry backoff, consuming nothing. *)
