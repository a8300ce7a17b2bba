(** Textual kernel serialisation: the fuzz corpus payload, the serve
    wire form of an inline kernel, and a kernel's identity in result
    cache keys.

    A compact s-expression syntax covering every {!Kernel.t} field,
    so shrunk counterexamples persist and replay byte-for-byte: scalar
    values print as OCaml hexadecimal float literals ([%h]), making the
    round trip exact.

    [of_string (to_string k) = Ok k] for every kernel (structural
    equality). *)

val to_string : Kernel.t -> string

val of_string : string -> (Kernel.t, string) result
(** [Error] carries a human-readable position-free message. *)
