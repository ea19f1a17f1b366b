(** Triton's layout engine over the mini-IR (Section 4.4), with both
    layout systems selectable:

    - [Linear]: anchors (blocked for global memory, mma for dot) are
      propagated forward through shape operations using the linear
      transfer functions; conversions are classified and costed with
      the Section 5 algorithms (no-op detection, register permutation,
      warp shuffles, optimal swizzling, ldmatrix).
    - [Legacy]: the same anchors, but conversions always go through
      padded shared memory, layouts of different kinds are never
      recognized as equal, reductions skip broadcast deduplication, and
      several layout/dtype combinations are unsupported.

    The engine is structured as a pass pipeline: {!run} is a thin
    wrapper that executes {!Passes.default} through the
    {!Pass_manager}.  Drive the pipeline directly (custom pass lists,
    per-pass instrumentation, dump-after-pass) via {!Pass.init} +
    {!Pass_manager.run}; the types below are re-exports of the
    pipeline's {!Pass} types, so both APIs interoperate. *)

type mode = Pass.mode = Linear | Legacy_mode

type conversion_info = Pass.conversion_info = {
  at : Program.id;
  mechanism : string;
  conv_cost : Gpusim.Cost.t;
  plan : Codegen.Conversion.plan option;
      (** the full plan in [Linear] mode, for downstream static
          analysis; [None] for the legacy baseline's padded round trips *)
}

type result = Pass.result = {
  cost : Gpusim.Cost.t;  (** whole-program data-movement cost *)
  conversions : conversion_info list;  (** materialized conversions *)
  converts : int;  (** conversions that were not no-ops *)
  noop_converts : int;  (** conversions folded away (equivalent layouts) *)
  local_loads : int;  (** static shared-memory load ops *)
  local_stores : int;  (** static shared-memory store ops *)
  remats : int;
      (** conversions avoided by rematerializing cheap load/elementwise
          chains in the consumer's layout (Section 4.4's backward pass) *)
  unsupported : string list;  (** legacy feature failures, empty = pass *)
}

(** Abstract time for the result on a machine. *)
val time : Gpusim.Machine.t -> result -> float

(** How layout-assignment decisions are committed: [Greedy] is the
    Section 4.4 walk ({!Assign_greedy}); [Search] explores the decision
    tree by beam search with exact static re-pricing of the short-list
    ({!Assign_search}) — never worse than greedy on the search
    objective. *)
type strategy = Greedy | Search of Assign_search.params

(** [run machine ~mode program] assigns layouts (mutating the program's
    [layout] fields; any previous assignment is reset first, so reruns
    are idempotent) and returns the accumulated statistics.
    [num_warps] defaults to 4.  [strategy] defaults to [Greedy].  To
    collect per-pass spans and planner metrics, run it under
    {!Obs.Trace.with_sink}. *)
val run :
  Gpusim.Machine.t ->
  mode:mode ->
  ?num_warps:int ->
  ?strategy:strategy ->
  Program.t ->
  result
