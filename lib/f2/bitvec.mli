(** Bit-vectors over the field [F2] of two elements.

    A vector in [F2^n] is represented as the low [n] bits of a non-negative
    OCaml [int]; bit [k] of the integer is coordinate [k] of the vector.
    This limits dimensions to 62 bits, far more than any tensor layout
    needs (GPU tensors have at most ~32 address bits). *)

type t = int

val zero : t

(** Number of usable coordinates in a single-word vector:
    [Sys.int_size - 1], i.e. 62 on 64-bit platforms.  Operations that
    mint a coordinate at or past this width raise [Invalid_argument]
    instead of silently wrapping. *)
val max_bits : int

(** [unit k] is the basis vector [e_k]. Raises [Invalid_argument] when
    [k < 0] or [k >= max_bits]. *)
val unit : int -> t

(** [bit v k] is coordinate [k] of [v]. *)
val bit : t -> int -> bool

(** Vector addition in [F2], i.e. bitwise XOR. *)
val add : t -> t -> t

(** [dot a b] is the inner product [sum_k a_k * b_k] in [F2]. *)
val dot : t -> t -> bool

(** Number of set coordinates (Hamming weight). *)
val popcount : t -> int

(** [parity v] is [popcount v mod 2]. *)
val parity : t -> bool

(** Position of the most significant set bit, or [-1] for the zero vector. *)
val msb : t -> int

(** Position of the least significant set bit, or [-1] for the zero vector. *)
val lsb : t -> int

(** Number of trailing zeros; same as {!lsb} (and [-1] on zero).  The
    name matches the hardware instruction the word-parallel loops in
    {!Bitmatrix} are written against. *)
val ntz : t -> int

(** Number of bits needed to represent [v], i.e. [msb v + 1]. *)
val width : t -> int

(** Indices of set coordinates, in increasing order. *)
val support : t -> int list

(** [extract v ~pos ~len] is the [len]-bit field of [v] starting at [pos]. *)
val extract : t -> pos:int -> len:int -> t

(** [insert v ~pos ~len field] overwrites the [len]-bit field at [pos]. *)
val insert : t -> pos:int -> len:int -> t -> t

(** All vectors of [F2^n], i.e. [0 .. 2^n - 1], as a list. *)
val all : int -> t list

val equal : t -> t -> bool
val compare : t -> t -> int

(** Render as a binary literal, e.g. [0b1011]; width pads with zeros. *)
val pp : width:int -> Format.formatter -> t -> unit

val to_string : width:int -> t -> string
