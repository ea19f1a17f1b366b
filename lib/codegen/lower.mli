(** Lowering of conversion plans to the warp-level pseudo-ISA.

    This is the last mile of Section 5: the planner's algebra
    (register permutations, shuffle rounds, swizzled shared-memory
    round trips) becomes an inspectable instruction stream that the
    {!Gpusim.Isa} interpreter executes on concrete register files and
    shared memory.  It is the one executor of conversion plans: data
    moves through {!run}, and {!Analysis.Transval} certifies the same
    programs.

    Slot convention: the source value occupies slots
    [0 .. src_regs-1] (register [r] of the source layout in slot [r]);
    the destination value lands in slots
    [dst_base .. dst_base + dst_regs - 1]; two staging slots follow for
    shuffle traffic.  [src_regs] and [dst_regs] are powers of two.

    Warp shuffles follow Section 5.4 (Figure 4): the two layouts have the
    same warp columns W, so every warp's round is a translate of warp
    0's.  One round is emitted per element of span(R') x payload
    element, where R' completes V u I u G u W to a basis, and all warps
    run it: each per-warp table of a round holds one row that every
    warp shares.  This relies on {!Gpusim.Isa} programs never being
    mutated.

    Shared-memory round trips store through the plan's memory layout:
    [mem_inv o dist] is linear, so each store or load carries one
    {!Gpusim.Isa.addr} — its base is the image of the instruction's
    register group, its columns the images of the lane and warp bits,
    shared by every instruction of the side.  {!reduce}'s cross-warp
    exchange addresses its cells the same way. *)

open Linear_layout

type slot_map = {
  src_regs : int;
  dst_base : int;
  dst_regs : int;
  total_slots : int;
}

(** [lowerable plan] holds when [plan] has a warp-level lowering: it is
    not a [Global_roundtrip] and both layouts have the same lane and
    warp sizes.  {!conversion} raises [Failure] on every other plan;
    {!Analysis.Transval.certify_plan} proves those algebraically. *)
val lowerable : Conversion.plan -> bool

(** [conversion machine plan] lowers a {!Conversion.plan}.  The emitted
    program's shape (warps/lanes) comes from the plan's layouts.
    Raises [Failure] on plans that are not {!lowerable}, on plans
    whose layouts broadcast across lanes in a way the lowering does not
    support (the planner's shared path always works), and on a shuffle
    plan that is not a warp shuffle: one whose round has two elements
    claiming one lane's Sel, Shfl or Scatter cell (a lane would send or
    receive two payloads). *)
val conversion : Gpusim.Machine.t -> Conversion.plan -> Gpusim.Isa.program * slot_map

(** [fill_src program map state f] writes [f hw] into the slot that
    holds source hardware point [hw]: point [r | t * src_regs] goes to
    slot [r] of thread [t = warp * lanes + lane].  The thread count
    comes from [program].  Raises [Invalid_argument] when the source
    slots do not fit [state.slots]. *)
val fill_src : Gpusim.Isa.program -> slot_map -> Gpusim.Isa.state -> (int -> int) -> unit

(** [read_dst program map state] reads destination hardware point [h]:
    slot [dst_base + h mod dst_regs] of thread [h / dst_regs].  Raises
    [Invalid_argument] (on partial application) when the destination
    slots do not fit [state.slots]. *)
val read_dst : Gpusim.Isa.program -> slot_map -> Gpusim.Isa.state -> int -> int

(** [load_state program map dist] builds interpreter state with the
    source slots filled from a distributed tensor ({!fill_src}). *)
val load_state : Gpusim.Isa.program -> slot_map -> Gpusim.Dist.t -> Gpusim.Isa.state

(** [store_dist program map ~dst state] reads the destination slots of
    every thread of [program] back into a distributed tensor over
    layout [dst] ({!read_dst}). *)
val store_dist :
  Gpusim.Isa.program -> slot_map -> dst:Layout.t -> Gpusim.Isa.state -> Gpusim.Dist.t

(** [run machine plan dist] lowers [plan], executes the program on
    [dist] with {!Gpusim.Isa.run}, and returns the converted data plus
    the interpreter-accounted cost.  Raises what {!conversion} raises. *)
val run :
  Gpusim.Machine.t -> Conversion.plan -> Gpusim.Dist.t -> Gpusim.Dist.t * Gpusim.Cost.t

(** [gather machine ~src ~index ~axis] lowers a warp-shuffle gather
    (Section 5.5) to instructions: per destination register, rounds of
    publish/shuffle/commit where each source lane serves one request
    per round.  The per-lane tables stand for the address arithmetic
    real code derives from the index registers at run time.  [Error]
    when the gather leaves the warp (the shared-memory fallback). *)
val gather :
  Gpusim.Machine.t ->
  src:Gpusim.Dist.t ->
  index:Gpusim.Dist.t ->
  axis:int ->
  (Gpusim.Isa.program * slot_map, string) result

(** [reduce machine ~src ~axis] lowers an all-reduce (sum) over logical
    dimension [axis] of a distributed tensor:

    + a register tree combining the thread-local elements that differ
      only along the axis;
    + a butterfly of warp shuffles over the lane bits on the axis;
    + a shared-memory exchange of per-warp partials when warps split
      the axis.

    The result distributes the reduced value over the {e sliced} layout
    [Sliced.make src.layout ~dim:axis] with every original hardware
    point holding its row's total — so reading it back through the
    (non-injective) sliced layout also verifies all copies agree.
    Returns the program, the slot map, and the result layout. *)
val reduce :
  ?op:[ `Add | `Max ] ->
  Gpusim.Machine.t ->
  src:Gpusim.Dist.t ->
  axis:int ->
  Gpusim.Isa.program * slot_map * Layout.t

(** [scan machine ~src ~axis] lowers an inclusive prefix sum over
    logical dimension [axis], provided the axis is confined to
    registers and lanes (a warp-local scan): an in-register sequential
    pass followed by a Hillis-Steele shuffle scan over the axis lane
    bits.  The result keeps the source layout.  [Error] when warps
    split the axis. *)
val scan :
  Gpusim.Machine.t ->
  src:Gpusim.Dist.t ->
  axis:int ->
  (Gpusim.Isa.program * slot_map, string) result
