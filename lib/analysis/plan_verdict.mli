(** The per-plan verdict table.

    A conversion plan is an immutable value, and the plan caches hand
    out one physically shared value per (machine, source, destination,
    byte width) key, so what the analyses ask of a plan is a fixed
    property of that value.  One per-domain ephemeron table keyed by
    the physical identity ([==]) of a plan and of a machine holds three
    verdicts per plan, each filled on first demand and read on every
    later one:

    - the static price of the plan's lowered stream
      ({!Static_cost.reprice_conversion});
    - the plan's location-free error diagnostics ([Tir.Lint.errors]);
    - the plan's F2 certificate ({!Transval.certify_plan}).

    An entry lives as long as its plan, so it is freed once the plan
    caches drop the plan; a plan built outside the caches (a plan
    store's loaded plan, a test's fresh value) is a fresh key and
    misses.  No lowered program is stored.  Every read of a stored
    field counts [analysis.plan_verdicts.hits], every computation
    [analysis.plan_verdicts.misses] (when {!Obs.enabled}).  A raised
    exception is never stored: the next demand computes again. *)

(** [price m plan compute] is the stored price verdict of [plan] on
    [m], [compute ()] on the first demand.  The stored value is
    returned as is; {!Static_cost.reprice_conversion} hands each
    caller its own copy. *)
val price :
  Gpusim.Machine.t ->
  Codegen.Conversion.plan ->
  (unit -> Gpusim.Cost.t option) ->
  Gpusim.Cost.t option

(** [errors m plan compute] is the stored error verdict of [plan] on
    [m], [compute ()] on the first demand.  [compute] must be a pure
    function of the plan and the machine: the lint gate passes the
    plan's bank, race and resource errors. *)
val errors :
  Gpusim.Machine.t ->
  Codegen.Conversion.plan ->
  (unit -> Linear_layout.Diagnostics.t list) ->
  Linear_layout.Diagnostics.t list

(** [cert m plan] is the stored certificate of [plan] on [m]:
    {!Transval.certify_plan} on the first demand, the same certificate
    on every later one.  The PLAN verb, the daemon's plan-store
    callbacks and [Tir.Certify.conversions] read it. *)
val cert : Gpusim.Machine.t -> Codegen.Conversion.plan -> Transval.cert
