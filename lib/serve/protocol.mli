open Convex_machine

(** Wire protocol of [macs_serve]: newline-delimited JSON frames.

    One request frame per line, one reply line per frame, always — a
    malformed, oversized, over-deadline or mid-fault request produces a
    structured error reply on the same connection, never a dropped one.

    {2 Request frames}

    A frame is a JSON object.  Control frames carry just
    [{"op": "ping" | "stats" | "shutdown"}] (an ["id"] is echoed when
    present).  Work frames carry:

    - ["id"] (required string): client-chosen request id; retries with
      the same id and payload replay the original reply byte-for-byte.
    - ["deadline_ms"] (optional number): wall-clock allowance for the
      whole batch, compiled into a {!Convex_harness.Budget} watchdog.
    - ["budget_cycles"] (optional number): simulated-cycle allowance —
      the deterministic deadline used by tests and the crash sweep.
    - ["batch"] (array of items), or the item fields inline in the frame
      itself (single-op sugar).

    An item is [{"op": "simulate" | "hierarchy" | "validate" | "advise",
    "kernel": <LFK number or inline kernel s-expression>,
    "machine": <machine spec>, "faults": <fault spec>,
    "fidelity": "cycle" | "tiered", "opt": <opt level>,
    "tol": <number>}] — everything but ["op"] optional ([validate]
    needs no kernel; the machine defaults to [c240]).  ["fidelity"] is
    accepted and validated for compatibility but selects nothing: every
    op runs the production (tiered) stepper.

    {2 Reply frames}

    [{"id": ..., "ok": true, "results": [...]}] for a served batch (each
    result itself [{"ok": true, "tier": "full" | "estimate", ...}] or
    [{"ok": false, "error": ...}]), or [{"id": ..., "ok": false,
    "error": {"kind": ..., "site": ..., "message": ...}}] for a frame
    rejected whole.  Frame-level error kinds beyond the
    {!Macs_util.Macs_error.kind} tags: ["bad-frame"] (not a JSON
    object), ["bad-request"] (envelope violation), ["frame-too-large"],
    ["batch-too-large"], ["overloaded"] (every connection slot busy —
    retry later), ["internal"]; the connection layer adds ["timeout"],
    ["throttled"] and ["draining"]. *)

type perror = { kind : string; site : string; message : string }

val perror : ?site:string -> kind:string -> string -> perror
val of_macs_error : Macs_util.Macs_error.t -> perror
val error_json : perror -> Json.t

val error_reply : ?id:string -> perror -> string
(** A complete one-line reply rejecting a frame. *)

type op = Simulate | Hierarchy | Validate | Advise

val op_name : op -> string

type item = {
  op : op;
  kernel : Lfk.Kernel.t option;  (** [None] only for [Validate] *)
  kernel_label : string;  (** ["lfk7"], ["inline:<name>"] or ["-"] *)
  machine : Machine.t;
  faults : Convex_fault.Fault.t;
  fidelity : Convex_vpsim.Fastpath.fidelity;
      (** decoded from the wire for compatibility; {!Engine} ignores it *)
  opt : Fcc.Opt_level.t;
  tol : float option;
}

val decode_item : Json.t -> (item, perror) result
(** Item-level decode; errors are typed ([parse-failure] for a bad
    machine/fault/kernel spec, [bad-request] for envelope violations)
    and reported per item, so one bad item never sinks its batch. *)

type control = Ping | Stats | Shutdown

type 'items envelope =
  | Control of { id : string option; control : control }
  | Batch of {
      id : string;
      deadline_ms : float option;
      budget_cycles : float option;
      items : 'items;
    }
(** A decoded request line, its batch items still of type ['items]. *)

type frame = (item, perror) result list envelope

val decode_envelope :
  max_batch:int -> string -> (Json.t list Lazy.t envelope, perror) result
(** Decode one request line's envelope and leave its items unbuilt.
    Every frame-level check happens here: JSON syntax, a JSON object,
    the [id], [deadline_ms] and [budget_cycles] fields, [batch] being
    an array (or an inline ["op"]), and the [max_batch] cap.  The line
    is validated by {!Json.scan}, which builds no tree: the four
    envelope fields are parsed from their own spans (the first binding
    of a key wins, as in {!Json.mem}), and [max_batch] is checked
    against the scanned element count.  No item is parsed until the
    lazy items are forced, which parses the [batch] span alone (or, for
    an inline frame, the line); so the server derives the frame key and
    answers a replayed frame without building any item, and
    {!decode_item} decodes them on a miss.  A line the scan rejects is
    handed to {!Json.parse} only for its error message, so a
    [bad-frame] reply carries the parser's message and byte offset. *)

val decode_frame : max_batch:int -> string -> (frame, perror) result
(** {!decode_envelope}, then {!decode_item} on each item: one request
    line fully decoded.  Frame-level failures (bad JSON, missing id,
    oversized batch) reject the frame; item-level failures are embedded
    per item. *)
