open Convex_machine

(** Parsed, validated machine-description grammar.

    {!Machine.t} presets promoted to text, following the spec-grid and
    round-trip discipline of [Fault.to_spec]: a printer/parser pair whose
    canonical form round-trips byte-exactly, typed
    {!Macs_util.Macs_error.t} diagnostics on every malformed field (no
    [failwith]), and every stock preset re-expressed through the grammar
    ({!preset_specs}).  This is the wire format of the [macs_serve]
    what-if workflow: "what if the machine had 64 banks or 2 multiply
    pipes" is the spec ["c240;banks=64"] or ["c240;pipes.mul=2"].

    {2 Grammar}

    A spec is [;]-separated [key=value] clauses.  A bare token with no
    [=] anywhere is a preset name ({!Machine.preset_names}).  Otherwise
    the first clause may be a bare preset name naming the {e base}
    machine (default [c240]); every following clause overrides one field
    group:

    {v
    name=<escaped text>          machine display name (%XX-escaped)
    clock=<mhz>                  clock in MHz (positive float)
    vl=<n>                       vector register length
    pipes=<ld>/<add>/<mul>       function units per class
    pipes.ld=<n> pipes.add=<n> pipes.mul=<n>   single-class override
    pair=<reads>/<writes>        register-pair chime legality limits
    scalar=<cycles>/<mem>        scalar issue / scalar memory-port cycles
    banks=<n>                    memory bank count
    word=<bytes>                 word size
    busy=<cycles>                bank busy (cycle) time
    refresh=<duration>/<period>  refresh window, or refresh=none
    ports=<n>                    memory ports (contention model)
    t.<class>=<x>/<y>/<z>/<b>    timing row: startup X, fill Y,
                                 per-element rate Z (float), bubble B
    t.<class>.<x|y|z|b>=<v>      single timing-field override
    v}

    where [<class>] is one of [ld st add sub mul div sqrt sum neg cmp
    merge].  {!to_spec} prints the canonical full grid (every clause, in
    the order above); [parse (to_spec m)] reconstructs [m] exactly and
    [to_spec (parse s)] is byte-identical to [s] for canonical [s]. *)

val to_spec : Machine.t -> string
(** Canonical full-grid spec; [parse] inverts it byte-exactly. *)

val parse : string -> (Machine.t, Macs_util.Macs_error.t) result
(** Parse a preset name or clause spec.  Every malformed clause —
    unknown key, bad arity, out-of-range value, unparseable number —
    is a typed [Parse_failure] naming the clause; the parsed machine is
    then checked by {!validate}. *)

val validate : Machine.t -> (unit, Macs_util.Macs_error.t) result
(** Field-range validation shared by {!parse} and direct constructors:
    positive finite clock, [1 <= vl <= 4096], pipe counts in [1, 16],
    pair limits in [1, 16], scalar cycles in [1, 1024], banks in
    [1, 65536], word size in [1, 64] bytes, bank busy in [0, 4096],
    refresh [0 < duration < period] (or none), ports in [1, 64], and
    every timing row [x, y >= 0], [b >= 0], [z] in (0, 1024] — bounds
    chosen so no wire-supplied description can make the simulator
    allocate or spin unboundedly. *)

val label : Machine.t -> string
(** The name a record (a chaos journal, a fuzz corpus entry) gives the
    machine that actually ran: the preset name when a preset is
    {!Machine.equal} to it, else its full {!to_spec}.  {!parse} reads
    either spelling back to an equal machine. *)

val of_name_or_spec : string -> (Machine.t, string) result
(** {!parse} with the error flattened to a message — drop-in for
    [Machine.of_name] in CLI converters. *)

val preset_specs : (string * string) list
(** Every stock preset re-expressed through the grammar:
    [(name, to_spec machine)] for each of {!Machine.presets}. *)

val vclass_names : (string * Convex_isa.Instr.vclass) list
(** The [t.<class>] spellings, in timing-table order. *)
