(** Exact static cost of ISA programs, without execution.

    Every address and lane-selection operand of {!Gpusim.Isa} is a
    precomputed immediate, so the cost the interpreter would account —
    shared-memory wavefronts, counted by rank on each access's affine
    address map ({!Gpusim.Banks.linear_wavefronts}), shuffles, ALU
    work, barriers — is a pure function of the instruction stream.
    This module folds {!Gpusim.Isa.price}, the ISA's one
    per-instruction price rule, over the stream without moving any
    data.  {!Gpusim.Isa.run} folds the same rule while it executes, so

    {v Static_cost.cost m p = Gpusim.Isa.run m p (make_state p ~slots) v}

    holds by construction for every well-formed program.  The test
    suite checks both sides against an independent oracle that expands
    each address map and prices every warp's shared access with the
    point model {!Gpusim.Banks.wavefronts} on explicit per-lane access
    records.  Malformation is not re-derived here: an instruction with
    a {!Gpusim.Isa.fault} (wrong lane-table or address-map shape,
    shuffle source lane or shared-memory address out of range)
    raises [Failure] with {!Gpusim.Isa.fault_message}, the
    interpreter's own message, before it is priced, so the equation
    extends to the failure modes; the graceful LL8xx reporting of the
    same faults lives in {!Resource_check}.

    The layout search's re-price ({!reprice_conversion}) of a
    conversion plan is computed once per plan, machine and domain, and
    read on every later request from the per-plan verdict table
    ({!Plan_verdict}). *)

open Linear_layout

(** One row of the per-instruction cost attribution table. *)
type attribution = {
  index : int;  (** position in [program.body] *)
  class_ : string;  (** {!Gpusim.Isa.instr_class} *)
  cost : Gpusim.Cost.t;  (** this instruction's contribution *)
}

type t = {
  total : Gpusim.Cost.t;
  per_instr : attribution list;
  estimate : float;  (** [Cost.estimate] of [total] on the machine *)
}

(** Fast path: the total cost only, no attribution table. *)
val cost : Gpusim.Machine.t -> Gpusim.Isa.program -> Gpusim.Cost.t

val analyze : Gpusim.Machine.t -> Gpusim.Isa.program -> t

(** [differential m ~slots p] runs the interpreter on a fresh
    [slots]-slot state and compares counter-for-counter against the
    static cost: an LL810 error on any divergence, [] when they agree.
    Both sides fold {!Gpusim.Isa.price}, so a divergence cannot arise
    from pricing; the check remains for callers that hold the two
    sides against each other on lowered streams. *)
val differential :
  Gpusim.Machine.t -> slots:int -> Gpusim.Isa.program -> Diagnostics.t list

(** [lower_plan m plan] is {!Codegen.Lower.conversion} behind
    {!Codegen.Lower.lowerable}, the guard the engine and the certifier
    use: [None] for plans with no warp-level lowering (global round
    trips, CTA-shape mismatches) and for lowering failures — those are
    executed algebraically and carry only planner costs.  It is the one
    way to lower a plan for analysis: callers pair it with the check
    they need ({!analyze}, {!Resource_check.lowered},
    {!Races.check_lowered}); [Tir.Lint.plan] runs every check on one
    lowering. *)
val lower_plan :
  Gpusim.Machine.t ->
  Codegen.Conversion.plan ->
  (Gpusim.Isa.program * Codegen.Lower.slot_map) option

(** The layout-search objective hook: the exact static cost
    ({!cost}) of the plan's lowered instruction stream, [None] when the
    plan has no warp-level lowering (keep the planner cost then).  It
    executes nothing: no {!Gpusim.Isa.state} is created.  A malformed
    lowered stream raises [Failure] ({!Gpusim.Isa.fault_message}).

    The price is the plan's verdict ({!Plan_verdict.price}): it is
    computed once per plan, machine and domain, and every later call on
    the same plan value (the one the plan caches hand out) returns a
    fresh copy of it without lowering again.  A [Failure] is never
    stored, so a malformed plan raises on every call. *)
val reprice_conversion :
  Gpusim.Machine.t -> Codegen.Conversion.plan -> Gpusim.Cost.t option

val pp : Format.formatter -> t -> unit
