(** Minimal total JSON codec for the [macs_serve] wire protocol.

    Written in-tree because the toolchain ships no JSON library, and kept
    deliberately hostile-input-proof: the parser is a depth-capped
    recursive descent that returns a typed error on any malformed byte —
    it never raises, never loops, and its recursion is bounded by
    a nesting cap, so no frame can crash or hang the server at the codec
    layer.  The printer emits one line (no raw newlines ever escape into
    a frame) and renders non-finite numbers as [null], so every reply is
    valid JSON by construction. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document, at most 64 nesting levels deep;
    trailing non-whitespace is an error.  Error messages carry the byte
    offset. *)

val to_string : t -> string
(** Canonical one-line rendering.  Integral numbers within 2^53 print
    without a decimal point; other finite numbers print with enough
    digits to round-trip; NaN and infinities print as [null]. *)

(** {1 Scanner} *)

type member = {
  key : string;  (** decoded, as {!parse} decodes it *)
  pos : int;  (** offset of the value's first byte in the scanned string *)
  len : int;  (** the value's length in bytes *)
  count : int option;  (** element count when the value is an array *)
}

type scan =
  | Rejected  (** exactly the strings {!parse} returns [Error] on *)
  | Not_object  (** a valid document whose top level is not an object *)
  | Object of member list  (** every member, in document order *)

val scan : string -> scan
(** Validate a document without building it.  It accepts exactly the
    strings {!parse} accepts at its default 64-level nesting cap: the
    same grammar, strict numbers, escapes and surrogate pairs, and
    no trailing bytes.  It allocates no value, only the top-level
    member list and its keys: a key holding no escape is copied, an
    escaped one is decoded.  It raises nothing and carries no message;
    on [Rejected], {!parse} on the same string gives the error.  A
    string the two disagree on is a bug in [scan]; test_serve's qcheck
    property "scan agrees with parse" holds them together.
    Duplicate keys are all listed, so the first member with a key is
    the binding {!mem} returns. *)

val member_value : string -> member -> t
(** Parse one member's value out of the string it was scanned from, for
    the price of its own bytes.  [member_value s m = v] where [v] is
    [m]'s value in [parse s].  A member scanned from another string may
    raise [Invalid_argument]. *)

(** {1 Accessors} — each returns [None] on shape mismatch. *)

val mem : t -> string -> t option
(** First binding of a key in an object. *)

val str : t -> string option
val num : t -> float option

val int : t -> int option
(** Integral [Num] within [int] range. *)

val bool : t -> bool option
val arr : t -> t list option
