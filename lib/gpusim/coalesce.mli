(** Global-memory coalescing model: a warp access costs one transaction
    per distinct 32-byte sector touched (grouped into up to 128-byte
    cache lines for the cost model).  This drives the load/store
    contiguity experiments (Table 3, Figure 2). *)

(** [transactions accesses] counts distinct 32-byte sectors touched by a
    warp, given per-lane [(byte_addr, bytes)] accesses.  This is the
    definition of the sector model; {!warp_sectors} computes the same
    count in closed form for accesses through a layout. *)
val transactions : (int * int) list -> int

(** [warp_sectors layout ~byte_width ~vec] is the number of distinct
    32-byte sectors one warp instruction touches when every lane moves
    [vec] consecutive elements of [byte_width] bytes through the
    distributed [layout] — [transactions] of that instruction's
    per-lane accesses, computed with one rank over F2 instead of an
    enumeration of the lanes.

    The argument.  Let [A] be the matrix of [layout] with its outputs
    flattened, and [w = vec * byte_width].  Instruction [g] covers the
    registers [g * vec .. g * vec + vec - 1]; lane [l] starts at
    element [a = c_g xor b_l], where [c_g = A (g * vec)] and [b_l] is
    [A] applied to [l]'s bits, a linear function of [l].  Its access
    covers the bytes [[a * byte_width, a * byte_width + w)].
    - Suppose every such byte address is a multiple of [w], i.e. the
      low [log2 vec] bits of [a] are zero.
    - Then an access with [w <= 32] lies inside one sector, and one
      with [w > 32] covers [w / 32] whole sectors of its own.
    - Its first sector, divided by [max 1 (w / 32)], is
      [(a * byte_width) >> log2 (max 32 w)]: a right shift of [a],
      hence linear over F2.  XOR by [c_g] permutes the sectors, so the
      count is the same for every [g]: [max 1 (w / 32)] times
      [2^rank] of the shifted lane columns of [A].

    The alignment precondition always holds for a distributed layout
    (Definition 4.10) with [vec <= num_consecutive]: register columns
    [0 .. log2 vec - 1] are [e_0 .. e_{log2 vec - 1}], and every other
    column is zero or a different one-hot vector, so its low
    [log2 vec] bits are zero.  Lanes broadcasting (zero columns) and
    layouts without lane bits need no special case.

    Raises [Invalid_argument] naming the violated condition when a
    lane column or a register column at or above [log2 vec] has any of
    the low [log2 vec] bits set (a non-aligned access), and when
    [byte_width] or [vec] is not a power of two. *)
val warp_sectors : Linear_layout.Layout.t -> byte_width:int -> vec:int -> int

(** [instruction_name ~bits] renders the PTX-style mnemonic Triton would
    emit for a per-lane access of the given width, e.g. 128 bits is
    ["v4.b32"], 16 bits ["v1.b16"] (Table 3). *)
val instruction_name : bits:int -> string
