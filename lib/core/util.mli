(** Small numeric helpers shared across the library. *)

val is_pow2 : int -> bool

(** [log2 n] for a positive power of two; raises [Invalid_argument]
    otherwise. *)
val log2 : int -> int

val ceil_div : int -> int -> int
