(** ASCII bar charts, used to reproduce the paper's Figure 3 (CPF per kernel
    for each level of the bounds hierarchy) in terminal output. *)

type series = { label : string; glyph : char; values : float array }
(** One bar series.  All series in a chart must have the same length. *)

val render :
  categories:string list ->
  series list ->
  string
(** [render ~categories series] draws one horizontal bar per
    (category, series) pair, grouped by category, scaled so that the largest
    value spans 50 characters.  Each bar is annotated with
    its numeric value to 3 decimals.

    Raises [Invalid_argument] if lengths disagree, the series list is empty,
    or any value is negative. *)

val render_sparkline : float array -> string
(** Compact one-line rendering with the classic eight-level block glyphs;
    used in calibration sweep summaries. *)
