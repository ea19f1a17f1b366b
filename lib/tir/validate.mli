(** Post-engine validation over an assignment: the {!Verifier} (codes
    [LL6xx]; see that module for the full list), the {!Lint} sweep and
    {!Certify.conversions}' plan certificates, plus the sweep as a
    per-pass hook.  Checks observe; only {!Passes} transform. *)

open Linear_layout

(** [analyze machine prog ~result] = {!Verifier.program} plus the full
    {!Lint.passes} sweep (coalescing, broadcast redundancy, bank
    certification, race checking, resource checking) plus
    {!Certify.conversions}' translation validation of every
    materialized conversion plan, over the
    assignment recorded by [result = Engine.run ... prog]. *)
val analyze : Gpusim.Machine.t -> Program.t -> result:Engine.result -> Diagnostics.t list

(** The LL2xx–LL5xx lint sweep as a {!Pass_manager} hook, for per-pass
    analysis at any point of the pipeline (the lints tolerate partially
    assigned programs); pass it as [after_pass]. *)
val lint_hook : Pass_manager.hook

(** Error-severity diagnostics of a failed validation; the registered
    printer renders them with codes and instruction ids. *)
exception Invalid of Diagnostics.t list
