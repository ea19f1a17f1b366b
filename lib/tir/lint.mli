(** Lint driver: runs the {!Analysis} passes over a layout-assigned
    program and the conversions the engine materialized for it.

    Per instruction (located with {!Linear_layout.Diagnostics.Tir_instr}):
    - load/store anchors go through {!Analysis.Coalesce_lint} ([LL4xx]);
    - elementwise/scan values go through {!Analysis.Broadcast_lint}
      ([LL5xx]), suppressed when the value feeds a reduction or a dot
      (whose deduplicated exchange / replicated operands are the point
      of the redundancy);

    Per materialized conversion (from {!Pass.conversion_info.plan} —
    the type {!Engine.conversion_info} re-exports):
    - the bank-conflict certifier {!Analysis.Bank_check} ([LL3xx]);
    - the race/barrier checker {!Analysis.Races} ([LL2xx]);
    - the resource checker {!Analysis.Resource_check} ([LL8xx]).

    {!plan} runs these three on one plan, lowering it once
    ({!Analysis.Static_cost.lower_plan}) for the race and resource
    checks to share; {!errors} reuses each plan's stored verdict
    instead.

    Diagnostics that carry no finer location are attributed to the
    conversion's instruction. *)

open Linear_layout

(** The per-instruction half of {!passes}: the [LL4xx] anchor and
    [LL5xx] broadcast lints, in instruction order. *)
val instruction_passes : Gpusim.Machine.t -> Program.t -> Diagnostics.t list

(** [plan machine p] is every check of one conversion plan: the bank
    certifier, then the race checker and the full resource report
    ({!Analysis.Resource_check.lowered}) on the plan's one lowering.
    Plans with no warp-level lowering (global round trips, CTA-shape
    mismatches) get the bank check only.  Diagnostics carry no
    instruction location; {!passes} attributes them to the conversion. *)
val plan : Gpusim.Machine.t -> Codegen.Conversion.plan -> Diagnostics.t list

(** [passes machine prog ~result] — [prog] must already have layouts
    assigned (i.e. [result = Engine.run ... prog] was called on it). *)
val passes : Gpusim.Machine.t -> Program.t -> result:Pass.result -> Diagnostics.t list

(** [errors machine ~result] is
    [Diagnostics.errors (passes machine prog ~result)] for the program
    [prog] that [result] assigned, computed without
    the checks that only warn: the instruction lints ([LL4xx]/[LL5xx]
    have no error severity) and {!Analysis.Resource_check}'s register
    dataflow ([LL805]/[LL806]).  Every error-severity check still runs —
    bank certification, races and the resource errors — on one lowering
    per plan.  A plan's errors carry no location and depend only on the
    plan and the machine, so they are its verdict
    ({!Analysis.Static_cost.plan_errors}): computed once per plan per
    domain, then read on every later call and relocated to each
    conversion.  The layout search's lint gate uses it. *)
val errors : Gpusim.Machine.t -> result:Pass.result -> Diagnostics.t list
