(** Concrete values held in a distributed layout: one payload per
    hardware point (register x lane x warp).  Used to verify that every
    generated data-movement plan really moves each element where the
    destination layout expects it. *)

type t = { layout : Linear_layout.Layout.t; data : int array }

(** [init layout ~f] fills every hardware point with [f logical_index],
    where [logical_index] is the canonically flattened tensor
    coordinate the layout maps that point to (so broadcast copies are
    consistent by construction). *)
val init : Linear_layout.Layout.t -> f:(int -> int) -> t

(** Number of hardware points, [2^total_in_bits]. *)
val size : t -> int

(** [get d hw] / [set d hw v] access by flattened hardware index. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [to_logical d] reads the tensor back: [Error] if two hardware points
    mapping to the same logical element disagree (a broken broadcast)
    or some logical element has no point (the layout is not
    surjective), otherwise the flattened tensor contents.  Any payload
    value, [min_int] included, is read back as it is. *)
val to_logical : t -> (int array, string) result

(** [consistent_with d ~f] checks every hardware point holds
    [f logical_index]. *)
val consistent_with : t -> f:(int -> int) -> bool
