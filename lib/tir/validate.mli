(** Post-engine validation: run the engine and check its assignment
    with the {!Verifier} (codes [LL6xx]; see that module for the full
    list), optionally with the {!Lint} sweep.  [run_and_validate]
    drives the pass pipeline directly, running the verifier + lints as
    the [analyze] pass when requested. *)

open Linear_layout

val program : Program.t -> Diagnostics.t list
(** Alias of {!Verifier.program}. *)

(** [analyze machine prog ~result] = {!program} plus the full
    {!Lint.passes} sweep (coalescing, broadcast redundancy, bank
    certification, race checking) plus {!Pass_certify} translation
    validation of every materialized conversion plan, over the
    assignment recorded by [result = Engine.run ... prog]. *)
val analyze : Gpusim.Machine.t -> Program.t -> result:Engine.result -> Diagnostics.t list

(** The LL2xx–LL5xx lint sweep as a {!Pass_manager} hook, for per-pass
    analysis at any dump-after point (the lints tolerate partially
    assigned programs); pass it as [after_pass] or [dump_after]. *)
val lint_hook : Pass_manager.hook

(** Raised by {!run_and_validate} with the error-severity diagnostics;
    the registered printer renders them with codes and instruction
    ids. *)
exception Invalid of Diagnostics.t list

(** [run_and_validate machine ~mode prog] = engine + validation; raises
    {!Invalid} with the rendered diagnostics if any check fails.  With
    [~analyze:true] (default [false]) the {!Lint} passes also run and
    their error-severity findings fail validation too.  Only linear-mode
    assignments are verified: the legacy baseline rewrites unsupported
    layouts in place (its forced normalization conversions), so the
    per-op relations are not observable on its final state.  [chooser]
    selects the layout-assignment strategy (greedy by default) — e.g.
    {!Assign_search.chooser_of_script} to validate a search winner. *)
val run_and_validate :
  Gpusim.Machine.t ->
  mode:Engine.mode ->
  ?num_warps:int ->
  ?chooser:Strategy.t ->
  ?analyze:bool ->
  Program.t ->
  Engine.result
