(** Race and barrier checking over lowered {!Gpusim.Isa} programs.

    A CTA-wide [bar.sync] is the only ordering between shared-memory
    accesses of different warps; within one warp, lanes run in lockstep
    and program order already orders accesses.  The checker is a single
    forward dataflow over the instruction stream that tracks, per
    shared-memory address, the stores and loads issued since the last
    barrier, and reports:

    - [LL201] (error) read-after-write: a warp loads an address another
      warp stored with no intervening barrier;
    - [LL202] (error) write-after-write across warps without a barrier;
    - [LL203] (error) two lanes of one warp store the same address in
      the same instruction (the committed value is undefined);
    - [LL204] (error) write-after-read across warps without a barrier
      (the store may clobber a value the other warp is still reading);
    - [LL205] (error) plan-level: the store-side and load-side address
      images through the swizzle intersect (they always share address 0,
      and generally much more) but no barrier separates the phases;
    - [LL210] (warning) a barrier with no shared-memory traffic since
      the previous one (redundant synchronization).

    Diagnostics carry {!Diagnostics.Isa_instr} locations indexing into
    [program.body].

    A conversion plan is checked on its lowering: pair
    {!Static_cost.lower_plan} with {!check_lowered}, or call
    [Tir.Lint.plan], which runs this check beside the bank and resource
    checks on one lowering. *)

open Linear_layout

(** Check a concrete lowered program.  Addresses are read off the
    instruction stream's address maps, expanded point by point with
    {!Gpusim.Isa.iter_addresses}, so the analysis
    is exact: a reported race really is two unordered accesses to one
    address.  [duplicate_stores_benign] (default [false]) suppresses
    [LL202]/[LL203] when the caller has {e proved} that colliding stores
    always write the same value — e.g. a swizzle round trip whose
    invertible memory layout makes an address collision imply the same
    logical element. *)
val check : ?duplicate_stores_benign:bool -> Gpusim.Isa.program -> Diagnostics.t list

(** [check_lowered plan program] checks [program], the lowering of
    [plan].  Combines the algebraic phase check ([LL205], from the
    plan's layouts alone) with the exact instruction-level dataflow. *)
val check_lowered : Codegen.Conversion.plan -> Gpusim.Isa.program -> Diagnostics.t list
