(** Fixed-width table and series printers shared by the benchmark
    harness and the examples. *)

(** [table ~title ~headers rows] prints an aligned ASCII table. *)
val table : title:string -> headers:string list -> string list list -> unit

(** [series ~title rows] prints labelled values with a bar
    proportional to the value (used for the figure reproductions). *)
val series : ?unit_label:string -> title:string -> (string * float) list -> unit

val section : string -> unit

(** Geometric mean of positive values. *)
val geomean : float list -> float

val minmax : float list -> float * float
