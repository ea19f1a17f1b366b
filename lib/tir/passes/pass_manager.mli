(** The pipeline driver: runs a pass list over a {!Pass.state} with
    per-pass instrumentation — wall-clock timing, diagnostic
    attribution (each diagnostic a pass emits is tagged with the pass
    name), {!Codegen.Plan_cache} and {!Linear_layout.Layout.Memo}
    hit/miss deltas — and two hooks around every pass.

    Selecting passes is list surgery on the caller's side (filter,
    reorder, substitute {!Passes.find} results); dumping or linting
    after a pass is an [after_pass] hook; tracing a run is wrapping it
    in {!Obs.Trace.with_sink}. *)

type pass_report = {
  pass : string;
  wall_ms : float;
  diagnostics : int;  (** diagnostics this pass appended *)
  cost_delta : float;
      (** change in the statically estimated cost of the accumulated
          plan ([Cost.estimate] of [state.total]) across the pass *)
  plan_cache_hits : int;  (** {!Codegen.Plan_cache} delta during the pass *)
  plan_cache_misses : int;
  memo_hits : int;  (** {!Linear_layout.Layout.Memo} delta during the pass *)
  memo_misses : int;
}

type report = { pass_reports : pass_report list; total_ms : float }

type hook = string -> Pass.state -> unit
(** Called as [hook pass_name state]. *)

type config = {
  passes : Pass.t list;
  before_pass : hook option;
      (** called before every pass runs — e.g. the {!Certify} observer
          snapshotting the pre-pass assignment *)
  after_pass : hook option;
      (** called after every pass, {e before} diagnostic attribution,
          so appended diagnostics are tagged with the pass; used for
          per-pass analysis (lints, translation validation) and dumps *)
}

val config : ?before_pass:hook -> ?after_pass:hook -> Pass.t list -> config

(** Run the passes in list order, instrumenting each.  While a trace
    sink is installed, the run is a ["pipeline"] span with one
    ["pass/<name>"] child per pass, whose attributes are rendered from
    that pass's {!pass_report}; with tracing off no attribute is
    built. *)
val run : config -> Pass.state -> report

(** [exec config st] runs the passes through {!run}'s loop — hooks,
    diagnostic attribution, the same spans and, while tracing, the same
    span attributes — but returns no report.  With tracing off it
    measures nothing and allocates nothing of its own per pass: the
    entry point for callers that drop the report ({!Engine.run}, the
    search, {!Certify.run}). *)
val exec : config -> Pass.state -> unit

val pp_report : Format.formatter -> report -> unit

(** The report as a JSON object:
    [{"total_ms":..., "passes":[{"pass":..., "wall_ms":...,
    "diagnostics":..., "plan_cache":{...}, "memo":{...}}, ...]}]. *)
val to_json : report -> string

(** Default dump-after printer: per-instruction layout assignment and
    running totals. *)
val pp_state : Format.formatter -> Pass.state -> unit
