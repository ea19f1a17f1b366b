(** Optimal shared-memory swizzling (Section 5.4, "Optimal Swizzling",
    and Appendix 9.2).

    Given a source distributed layout [A] (which stores to shared
    memory) and a destination layout [B] (which loads from it), computes
    a memory layout [M : Vec x Bank x Seg -> tensor] that maximizes
    read/write vectorization and provably minimizes bank conflicts
    (Lemmas 9.4–9.6). *)

open Linear_layout

type t = {
  mem : Layout.t;  (** invertible offset -> tensor layout *)
  vec : int list;  (** the vectorization basis [V] *)
  seg : int list;  (** the segment basis [S_Idx] *)
  bank : int list;  (** the bank basis [S_Bank] *)
  vec_bits : int;  (** [log2] elements per vectorized access *)
  store_wavefronts : int;  (** predicted wavefronts per store instruction *)
  load_wavefronts : int;  (** predicted per load instruction *)
}

(** [optimal machine ~src ~dst ~byte_width] runs the algorithm of
    Section 5.4. The layouts must be surjective onto the same logical
    space. *)
val optimal : Gpusim.Machine.t -> src:Layout.t -> dst:Layout.t -> byte_width:int -> t

(** [predict_wavefronts machine ~vec ~seg ~dist ~byte_width] is the
    algebraic wavefront count of Lemma 9.4 for one warp-wide access of
    the distributed layout [dist] against a memory layout with
    vectorization basis [vec] and segment basis [seg]:
    [n * 2^dim(span(vec u seg) n span(bank-reduced thread columns))]. *)
val predict_wavefronts :
  Gpusim.Machine.t -> vec:int list -> seg:int list -> dist:Layout.t -> byte_width:int -> int

(** [wavefronts machine ~mem ~dist ~byte_width ~vec] is the exact
    wavefront count of storing (or loading) [dist] through the memory
    layout [mem]: one instruction covers the same register slots in
    every lane, the registers whose columns lie in the vectorization
    basis [vec] form its payload, and the remaining register bits
    enumerate the instructions.  Each offset is linear in the hardware
    index ([mem^-1 o dist], §5.4), so every instruction is counted by
    the rank rule {!Gpusim.Banks.linear_wavefronts} on the lane
    images, and all instructions of one warp cost the same.  Returns
    the total wavefronts across all instructions of one warp together
    with the instruction count.

    Raises [Invalid_argument "Swizzle_opt.wavefronts: access is not
    contiguous"] unless the payload registers' offset images span
    exactly the low offset bits (each lane then reads one aligned run
    of consecutive offsets), and as {!Gpusim.Banks.linear_wavefronts}
    does. *)
val wavefronts :
  Gpusim.Machine.t ->
  mem:Layout.t ->
  dist:Layout.t ->
  byte_width:int ->
  vec:int list ->
  int * int

(** [accesses t dist] is the number of vectorized shared-memory
    instructions the CTA issues to store (or load) [dist] through [t]:
    its registers in [2^vec_bits]-element chunks, at least one, times
    its warps. *)
val accesses : t -> Layout.t -> int

(** [add_side c ~insts ~wavefronts] adds the price of [insts]
    vectorized accesses of [wavefronts] wavefronts each to [c] in
    place: the instructions, their wavefronts and two ALU operations
    (address arithmetic) per instruction. *)
val add_side : Gpusim.Cost.t -> insts:int -> wavefronts:int -> unit

(** Cost of a full conversion through shared memory with this plan:
    per-warp stores + barrier + loads, each side priced by {!add_side}
    over its {!accesses}. *)
val cost : t -> src:Layout.t -> dst:Layout.t -> Gpusim.Cost.t
