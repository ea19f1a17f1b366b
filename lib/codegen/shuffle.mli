(** Warp-shuffle layout conversion (Section 5.4, "Intra-warp Data
    Exchange", illustrated in Figure 4).

    Given distributed layouts [A] (source) and [B] (destination) over
    the same logical tensor with identical warp columns and no
    broadcasting, elements are exchanged in [2^|R|] shuffle rounds:
    [V] is the vectorized common register basis, [I] the common thread
    basis, [G = { e_i xor f_i }] pairs up the differing thread bases,
    and [R] extends [V u I u G] to a basis of the whole space.  Each
    round exchanges the affine subspace [R(i) xor span(V u I u G)], one
    vectorized element per thread.

    This module plans and prices; {!Lower.conversion} emits the rounds
    as ISA code, where R's warp part becomes the warps running each
    round side by side, and {!Lower.run} executes it. *)

open Linear_layout

type t = {
  src : Layout.t;
  dst : Layout.t;
  vec : int list;  (** V: common register basis exchanged as one payload *)
  common_thr : int list;  (** I *)
  g : int list;  (** G *)
  ext : int list;  (** R: coset representatives basis *)
  rounds : int;  (** [2^|R|] *)
  shuffles_per_round : int;  (** payload split into 4-byte shuffles *)
}

(** [plan ~src ~dst ~byte_width] builds the shuffle plan.
    [Error] when the conversion leaves the warp (warp columns differ)
    or either layout broadcasts. *)
val plan : src:Layout.t -> dst:Layout.t -> byte_width:int -> (t, string) result

(** Total shuffle instructions per warp. *)
val total_shuffles : t -> int

(** Event counts for the cost model. *)
val cost : t -> Gpusim.Cost.t
