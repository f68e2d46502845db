(** CSV export of measurement series, for offline plotting of the Fig. 4
    reproductions. *)

val aligned_to_file : string -> labels:string list -> Series.t list -> unit
