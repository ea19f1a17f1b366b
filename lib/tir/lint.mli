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
    - the race/barrier checker {!Analysis.Races} ([LL2xx]).

    Diagnostics that carry no finer location are attributed to the
    conversion's instruction. *)

open Linear_layout

(** The per-instruction half of {!passes}: the [LL4xx] anchor and
    [LL5xx] broadcast lints, in instruction order. *)
val instruction_passes : Gpusim.Machine.t -> Program.t -> Diagnostics.t list

(** [passes machine prog ~result] — [prog] must already have layouts
    assigned (i.e. [result = Engine.run ... prog] was called on it). *)
val passes : Gpusim.Machine.t -> Program.t -> result:Pass.result -> Diagnostics.t list
