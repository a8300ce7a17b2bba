(** Renderers for the paper's figures. *)

val figure2 : unit -> string
(** Figure 2: chaining with perfect tailgating — the ld/add/mul example
    of §3.3 traced on the simulator, with an ASCII timeline per pipe, the
    162-cycle chained total, the ~422-cycle unchained total, and the
    VL + ΣB steady-state chime. *)

val figure3 : load_average:float -> Dataset.t -> string
(** Figure 3: CPF per kernel as grouped bars — MA bound, MAC bound, MACS
    bound, measured single-process, and measured with a multi-process
    memory-contention workload at [load_average] (the paper's is
    {!Report_doc.paper_load_average}). *)

val pipeline_trace : unit -> string
(** A Gantt view of the first two strips of LFK1 on the
    simulator: one bar per vector instruction, grouped by strip, showing
    chaining hand-offs and the steady-state chime cadence. *)
