(** Resource analysis of ISA programs: the LL8xx diagnostics family.

    Where {!Static_cost} prices a program, this module checks that it
    is {e well-resourced}: shared-memory accesses stay in bounds and
    within the machine's budget, every load reads data some store
    produced, stores are not dead, and register slots are defined
    before use.  All properties are decidable exactly — the ISA is
    straight-line and every operand is an immediate — so the passes
    below are precise dataflow, not approximations.

    Codes:
    - [LL800] (error): per-warp/lane immediate table or shared-memory
      address map has the wrong shape ({!Gpusim.Isa.fault})
    - [LL801] (error): shared-memory address out of range
    - [LL802] (warning): shared-memory footprint exceeds
      [machine.smem_bytes] — the simulated lowering still runs (the
      interpreter has no capacity notion), but the conversion would not
      fit on the real part without tiling
    - [LL803] (warning): load reads an element no store has written
    - [LL804] (warning): store is dead (no element read before overwrite
      or program end)
    - [LL805] (warning): register slot read before any definition
    - [LL806] (warning): register write is dead
    - [LL807] (error): shuffle source lane out of range

    The three errors are {!Gpusim.Isa.fault}, the interpreter's own
    malformation rule, so a program has none of them exactly when
    {!Gpusim.Isa.run} executes it without [Failure].  Malformed
    instructions are left out of the dataflow behind the warnings.

    Per-lane predication (Sel/Scatter skip lanes, shuffles keep subsets)
    means a slot can be defined in one lane and not another; to stay
    false-positive-free on such lowerings, LL805/LL806 fire only when
    the condition holds in {e every} lane that uses (resp. defines) the
    slot at that instruction.  Reads of never-written slots observe the
    interpreter's zero-initialised registers — code may rely on that
    (e.g. the scan lowering's zero slot), which is what [live_in] is
    for.  The dataflow keeps one byte per (instruction, slot) cell, so
    its cost is linear in instructions x slots x lanes, with no
    hashing.

    Every LL805/LL806 finding is a warning.  Callers that compare only
    error counts (the layout search's lint gate) use {!errors}, which
    skips the dataflow.

    A conversion plan is checked on its lowering: pair
    {!Static_cost.lower_plan} with {!lowered}, or call [Tir.Lint.plan],
    which runs this check beside the bank and race checks on one
    lowering. *)

open Linear_layout

(** A maximal contiguous run of touched shared-memory elements. *)
type region = {
  first_elem : int;
  last_elem : int;  (** inclusive element offsets *)
  first_def : int option;  (** index of the first store into the region *)
  last_use : int option;  (** index of the last load from the region *)
}

type report = {
  diagnostics : Diagnostics.t list;
  footprint_bytes : int;
      (** highest byte touched + 1 (0 when no shared-memory traffic) *)
  regions : region list;
  peak_live_slots : int;
      (** maximum, over lanes and program points, of simultaneously
          live register slots *)
}

(** [errors p] is the error-severity subset of {!program}'s
    diagnostics ([LL800], [LL801], [LL807]), in the same order, without
    the shared-memory extents or the register dataflow.  [program] runs
    these same checks first, so
    [errors p = Diagnostics.errors (program m ?live_in ?live_out p).diagnostics]
    for every machine and liveness. *)
val errors : Gpusim.Isa.program -> Diagnostics.t list

(** [program machine ?live_in ?live_out p] analyzes a raw program.
    [live_in] lists slots holding meaningful data on entry (reads
    before any store are then legitimate); defaults to none.
    [live_out] lists slots read after the program; when omitted, the
    dead-write analysis (LL806) is skipped and liveness treats nothing
    as live-out. *)
val program :
  Gpusim.Machine.t ->
  ?live_in:int list ->
  ?live_out:int list ->
  Gpusim.Isa.program ->
  report

(** [lowered machine (p, slot_map)] is {!program} on an already lowered
    conversion, with the slot map's source registers as [live_in] and
    destination registers as [live_out]. *)
val lowered : Gpusim.Machine.t -> Gpusim.Isa.program * Codegen.Lower.slot_map -> report

val pp : Format.formatter -> report -> unit
