(** The artifact catalogue: every reproduced table and figure, the
    ablations and the extensions, listed once in presentation order.  The
    CLI verbs, [report]'s Markdown and the bench all render from it. *)

type group =
  | Table  (** a paper table: [tables N], part of [tables all] *)
  | Ablation  (** ours: [tables ablations], not part of [tables all] *)
  | Figure  (** a paper figure or the pipeline trace: [figures NAME] *)
  | Extension  (** beyond the paper (DESIGN §4b): [extensions NAME] *)
  | Report_only  (** in the report and the bench, under no listing verb *)

type context = {
  dataset : Dataset.t Lazy.t;  (** forced only by the renderers that read it *)
  load_average : float;  (** figure 3's multi-process series *)
}

type entry = {
  id : string;  (** the bench target name (DESIGN §4/§4b); unique *)
  title : string;  (** the report heading *)
  group : group;
  name : string option;
      (** the entry's name under its group's verb ([None] for
          [Report_only]); the two ablations share ["ablations"] *)
  render : context -> string;
}

val catalogue : entry list

val paper_load_average : float
(** 5.1, the load average the paper measured figure 3's multi-process
    series under. *)

val context :
  ?machine:Convex_machine.Machine.t -> ?opt:Fcc.Opt_level.t ->
  ?load_average:float -> unit -> context
(** A dataset computed on first use (default c240 at v61); the load
    average defaults to {!paper_load_average}. *)

val find : string -> entry
(** By id; raises [Not_found]. *)

val names : verb:string -> string list
(** The distinct entry names under a verb, in catalogue order. *)

val select : verb:string -> string -> entry list
(** The entries a verb prints for a name: ["all"] is every entry of the
    verb except the ablations; an unknown name gives [[]]. *)

val render : context -> entry list -> string
(** The entries' bodies, each followed by a newline and separated by a
    blank line: what the CLI verbs print. *)

val to_markdown : unit -> string
(** Every entry under its [## title], fenced, on the default context. *)

val write_file : string -> unit
