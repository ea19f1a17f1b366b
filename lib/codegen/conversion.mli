(** Layout-to-layout conversion planning (Section 5.4).

    The conversion from distributed layout [A] to [B] is the map
    [B^+ o A] on hardware indices.  The planner picks the cheapest
    mechanism the structure allows:

    - {b No_op} when the layouts are equal (the "equivalent layouts"
      detection that turns welford's conversions into no-ops, §6.2);
    - {b Register_permute} when only register columns differ;
    - {b Warp_shuffle} when warp columns agree and neither layout
      broadcasts (Figure 4);
    - {b Shared_memory} with an optimal swizzle otherwise. *)

open Linear_layout

type mechanism =
  | No_op
  | Register_permute
  | Warp_shuffle of Shuffle.t
  | Warp_shuffle_compressed of Shuffle.t
      (** layouts that broadcast only in registers: duplicate registers
          are compressed away, the shuffle runs on the representatives,
          and the destination's copies are re-materialized with register
          moves — lifting Section 5.4's "no broadcasting" assumption.
          The carried plan's [src]/[dst] fields are the compressed
          (register-deduplicated) layouts that stage the exchange. *)
  | Shared_memory of Swizzle_opt.t
  | Global_roundtrip
      (** the layouts place data in different CTAs: shared memory cannot
          help, the conversion spills through global memory with a grid
          synchronization *)

type plan = { src : Layout.t; dst : Layout.t; byte_width : int; mechanism : mechanism }

(** Raises [Invalid_argument], naming the width and the machine, when
    [byte_width] fails {!valid_byte_width}. *)
val plan : Gpusim.Machine.t -> src:Layout.t -> dst:Layout.t -> byte_width:int -> plan

(** The element widths {!plan} accepts on a machine: a power of two
    from 1 byte up to one vector access ([max_vec_bits / 8]).  The
    swizzle search takes the logarithm of the elements per vector and
    per bank row, so with any other width {!plan} raises whenever the
    conversion goes through shared memory; front ends check this
    first. *)
val valid_byte_width : Gpusim.Machine.t -> int -> bool

(** [check_byte_width who machine w] raises [Invalid_argument] naming
    [who], [w] and the machine unless [valid_byte_width machine w]. *)
val check_byte_width : string -> Gpusim.Machine.t -> int -> unit

val mechanism_name : mechanism -> string

(** Stable snake_case identifier, used in metric names
    ([codegen.conversion.<slug>]). *)
val mechanism_slug : mechanism -> string

val cost : Gpusim.Machine.t -> plan -> Gpusim.Cost.t
