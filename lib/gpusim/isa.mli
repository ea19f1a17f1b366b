(** A warp-level pseudo-ISA and its interpreter.

    Conversion plans from [Codegen] lower to this instruction set
    (PTX-flavoured), and the interpreter executes them on concrete
    CTA state — register files per lane and a shared-memory array —
    while accounting costs with the same bank and shuffle models used
    by the planners.  Per-lane lane-selection immediates and
    shared-memory address maps are precomputed by the lowering (they
    stand for the address arithmetic real code performs from
    [%laneid]).

    Register files are indexed by {e slot}: slot [r] of lane [l] of
    warp [w].  Memory operands are element offsets scaled by the
    instruction's element byte width.

    Instruction tables are never mutated after construction: the
    interpreter, the static pricer, the resource and race checks and
    the certifier only read them, so a lowering may share one row
    between warps, tables or instructions.  Code that derives a faulty
    program from a lowered one copies the tables it changes first. *)

(** A shared-memory address map, affine over [F2]: lane [l] of warp [w]
    accesses element offset [base lxor M (l lor (w lsl lane_bits))],
    where [lane_bits] indexes the program's lanes and column [j] of
    [M = cols] is the offset image of bit [j] of that thread index —
    the lane bits first, then the warp bits.  A distributed layout
    stored through an invertible memory layout has exactly this form
    (paper §5.4). *)
type addr = { base : int; cols : F2.Bitmatrix.t }

type instr =
  | Mov of { dst : int; src : int }
      (** per-lane register move, all lanes *)
  | Sel of { dst : int; src_slot : int array array }
      (** per-lane register gather: lane [l] of warp [w] copies slot
          [src_slot.(w).(l)] into [dst] ([-1] skips the lane) — the
          predicated-move ladder real codegen emits before a shuffle *)
  | Scatter of { src : int; dst_slot : int array array }
      (** per-lane register scatter: lane writes [src] into slot
          [dst_slot.(w).(l)] ([-1] skips) *)
  | Shfl_idx of {
      dst : int;
      src : int;
      src_lane : int array array;  (** [warp].[lane]: the source lane *)
      keep : bool array array;  (** [warp].[lane]: commit the value? *)
    }
      (** warp shuffle: every lane publishes [src]; lane [l] of warp [w]
          receives from [src_lane.(w).(l)] and writes [dst] if
          [keep.(w).(l)] *)
  | St_shared of {
      slots : int list;  (** consecutive payload slots (vectorized) *)
      addr : addr;  (** each lane's element offset of the first slot *)
      byte_width : int;
    }
  | Ld_shared of { slots : int list; addr : addr; byte_width : int }
  | Bin of { op : [ `Add | `Max ]; dst : int; a : int; b : int }
      (** per-lane ALU: [dst <- a op b] in every lane *)
  | Bar_sync  (** CTA-wide barrier *)

type program = { warps : int; lanes : int; smem_elems : int; body : instr list }

(** Mutable CTA state.  The register file is one flat array: slot [s]
    of lane [l] in warp [w] is [regs.(((w * lanes) + l) * slots + s)].
    Every bound comes from the program and [slots], never from the
    array lengths, so a longer buffer may back a smaller program. *)
type state = {
  slots : int;  (** register slots per lane *)
  regs : int array;
  smem : int array;
}

(** [make_state program ~slots] is a zeroed state sized for [program]:
    [warps * lanes * slots] registers and [smem_elems] shared
    elements. *)
val make_state : program -> slots:int -> state

(** How an instruction is malformed: a per-warp/lane table that is not
    [warps x lanes] or a shared-memory address map of the wrong shape,
    the first out-of-range shared-memory element offset in (warp, lane,
    element) order, or the first out-of-range shuffle source lane in
    (warp, lane) order.

    A shared-memory instruction of [n] slots has the right shape when
    its map has one column per lane bit and warp bit ([log2 lanes] and
    [ceil (log2 warps)] of them), [lanes] is 0 or a power of two, [n]
    is a power of two (at least 1), and the base and every column are
    multiples of [n]: each lane then touches one aligned block
    [a0 .. a0 + n - 1 = a0 lxor (n - 1)], which is what makes
    {!price}'s rank rule exact. *)
type fault = Shape | Address of int | Source_lane of int

(** [fault program instr] is [instr]'s first fault, or [None] when the
    interpreter can execute it (slot ranges aside).  This is the one
    definition of a malformed instruction: {!exec} raises on it, and
    the static pricer and the LL800/LL801/LL807 checks report it. *)
val fault : program -> instr -> fault option

(** [iter_addresses program a f] calls [f t o] for every thread
    [t = w * lanes + l] of [program] in increasing order, where [o] is
    the element offset lane [l] of warp [w] accesses under [a].  It is
    the one expansion of an address map to points: the interpreter, the
    race check and the resource check read addresses through it.
    Requires [a] to have {!fault}'s shape. *)
val iter_addresses : program -> addr -> (int -> int -> unit) -> unit

(** The [Failure] message {!exec} raises for a fault of [instr]. *)
val fault_message : instr -> fault -> string

(** [exec ~bin program state] executes [program] on [state]: the data
    movement, with [bin op x y] as the value [Bin] writes.  Each
    instruction is checked once before it moves anything:
    + a [Shape] fault raises [Failure (fault_message instr Shape)];
    + otherwise, of the instruction's other {!fault} and its first
      out-of-range slot operand, the one at the earlier position in
      (warp, lane, element) order raises — [Failure (fault_message instr
      f)] or [Invalid_argument "index out of bounds"] — the fault when
      both sit at the same position.  A shuffle's [src] slot counts as
      read by every lane of warp 0 before any lane receives; an operand
      no lane uses ([Sel]/[Scatter] lanes with a negative entry,
      shuffle lanes not kept, a CTA with no threads) never fails.
    A failing instruction leaves [state] as the instructions before it
    left it. *)
val exec : bin:([ `Add | `Max ] -> int -> int -> int) -> program -> state -> unit

(** [price machine program cost instr] adds [instr]'s cost to [cost]:
    one ALU operation per warp for [Mov] and [Bin], two for [Sel] and
    [Scatter], a shuffle and an ALU operation per warp for [Shfl_idx],
    one shared-memory instruction per warp plus
    [warps * ]{!Banks.linear_wavefronts} of the map's lane columns for
    [St_shared] and [Ld_shared], and one barrier per [Bar_sync].  No
    lane is visited: warp [w]'s offsets are warp 0's XOR a constant,
    which permutes the words within each bank, so every warp costs what
    warp 0 does.  The byte width must be a power of two.  This is the one price rule of the ISA: the
    interpreter ({!run}) and the static pricer ([Analysis.Static_cost])
    both fold it, so they agree by construction.  It reads only the
    instruction's immediates and assumes a well-formed instruction
    (check {!fault} first). *)
val price : Machine.t -> program -> Cost.t -> instr -> unit

(** [run machine program state] is {!exec} with [Bin] computing [+] or
    [max], and returns the sum of {!price} over the executed
    instructions.  With observability enabled it counts
    [isa.instr.<class>] per instruction and observes
    [isa.cost.estimate]. *)
val run : Machine.t -> program -> state -> Cost.t

(** Short class name of an instruction ("mov", "shfl", "st_shared",
    ...), as used for obs counter names and cost attribution. *)
val instr_class : instr -> string

val pp : Format.formatter -> program -> unit
