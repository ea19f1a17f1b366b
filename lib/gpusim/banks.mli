(** Shared-memory bank-conflict simulation.

    One bank model: a warp access is split into 128-byte phases, and
    within each phase the number of wavefronts is the maximum, over
    banks, of the number of distinct bank words requested from that
    bank (a word requested by many lanes broadcasts and counts once).
    {!wavefronts} runs it on explicit addresses, for the legacy
    planner's padded (non-linear) accesses and as a test oracle;
    {!linear_wavefronts} counts it by rank when the addresses are
    linear in the lane index, as every ISA shared-memory access is. *)

(** One lane's access: starting byte address and width in bytes. *)
type access = { addr : int; bytes : int }

(** [wavefronts machine accesses] simulates one warp-wide shared-memory
    instruction.  The list gives the active lanes' accesses in lane
    order. *)
val wavefronts : Machine.t -> access list -> int

(** [conflict_free machine accesses] holds when each 128-byte phase
    completes in a single wavefront. *)
val conflict_free : Machine.t -> access list -> bool

(** [linear_wavefronts machine ~byte_width ~vec_bits lanes] is the
    wavefront count of one warp-wide access of [2^k] elements of [w]
    bytes per lane ([k = vec_bits], [w = byte_width], so
    [B = 2^k * w] bytes per lane), in which lane [l] reads the aligned
    block of [2^k] element offsets that holds [c xor A l]: [lanes]
    lists the columns of [A], the offset images of the [L] lane bits,
    lowest first, and [c] is the instruction's register image.  The
    result is {!wavefronts} on the accesses [{addr = o_l * w; bytes =
    B}] with [o_l] the first offset of lane [l]'s block, counted without
    visiting a lane and independent of [c] (for non-negative offsets):

    - [p = min L (max 0 (7 - log2 B))] lane bits share one 128-byte
      phase, so there are [2^(L - p)] phases;
    - [phi o = ((o lsr k) lsl log2 B) lsr log2 b] (the offset with its
      low [k] bits cleared, in bytes, over [b]) maps an offset to its
      bank word, for [b]-byte words;
    - [S] is the span of [phi (A e_i)] for [i < p] together with the
      [log2 (B / b)] lowest word unit vectors;
    - the count is [2^(L - p) * 2^(dim S - rank (S mod N))] for [N]
      banks.

    Within a phase the distinct words are the coset [phi c' xor S]
    ([phi] is a shift, hence linear), and each bank the coset meets
    holds [2^dim (S inter ker (mod N))] of them, which is the phase's
    maximum bank load (docs/THEORY.md, "Bank conflicts by rank").

    Raises [Invalid_argument] when the machine's [bank_bytes] or
    [num_banks], or [byte_width], is not a power of two. *)
val linear_wavefronts : Machine.t -> byte_width:int -> vec_bits:int -> int list -> int
