(** Terminal rendering of measurement series, so the harness can show
    the Fig. 4 panels directly rather than only summarizing them.

    Multiple series share one canvas; each gets a distinct glyph. Axes
    are labelled with the time range and value range; values are
    column-averaged into the available width. *)

type t = {
  label : string;
  glyph : char;
  series : Series.t;
}

val render : ?t0:float -> ?t1:float -> ?title:string -> t list -> string
(** Render the series between [t0] and [t1] (defaults: the union of
    their spans) onto a 72 × 16 canvas. Returns the complete multi-line
    plot including axes and a legend. Series with no samples in range
    are listed in the legend as "(no data)". Raises [Invalid_argument]
    on an empty series list or an empty time range. *)
