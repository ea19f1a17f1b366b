(** Pipeline-level translation validation.

    Two layers of certificates over one run of the engine:

    - {e pass certificates}: before/after snapshots of the layout
      assignment and the pending work-list around every pass, diffed
      over the flattened F2 maps.  An in-place re-layout must be covered
      by conversion requests recording the move ([LL620] otherwise, with
      a minimal counterexample bit-vector), an assignment must never be
      dropped ([LL621]), and a discharged work item must be a semantic
      no-op or replaced by an equivalent decision ([LL622]);
    - {e plan certificates}: every materialized conversion plan is
      lowered and symbolically executed by {!Analysis.Transval}
      ([LL650]/[LL651]/[LL652]), and every surviving layout-changing
      request must have been materialized ([LL623]).

    {!run}'s observer plugs into {!Pass_manager.config}'s
    [before_pass] / [after_pass] hooks, so refutations are attributed
    to the offending pass. *)

open Linear_layout

(** Assignment + work-list state captured before a pass runs. *)
type snapshot

type pass_cert = {
  pass : string;
  relayouts : int;  (** justified in-place layout changes *)
  discharged : int;  (** work items folded, remat-swapped or resolved *)
  refuted : int;  (** LL62x errors this pass triggered *)
}

val take_snapshot : Pass.state -> snapshot

(** Diff a pre-pass snapshot against the current state; appends nothing,
    returns the certificate and any refutation diagnostics. *)
val certify_pass : pass:string -> snapshot -> Pass.state -> pass_cert * Diagnostics.t list

(** {2 Plan certificates} *)

(** [conversions machine convs] reads the certificate of every plan in
    [convs] from its verdict ({!Analysis.Plan_verdict.cert}, which runs
    {!Analysis.Transval.certify_plan} once per plan value, machine and
    domain), in list order, and renders each
    refutation as an [LL65x] diagnostic located at the conversion's
    instruction.  Conversions without a plan (legacy mode) are
    skipped.  {!Validate.analyze} uses it. *)
val conversions :
  Gpusim.Machine.t ->
  Pass.conversion_info list ->
  (Program.id * Analysis.Transval.cert) list * Diagnostics.t list

(** [plans st] is {!conversions} over the conversions [st] has
    materialized, in materialization order, plus one [LL623] error per
    surviving layout-changing request that no conversion with matching
    layouts materialized.  {!run} calls it after the pipeline. *)
val plans : Pass.state -> (Program.id * Analysis.Transval.cert) list * Diagnostics.t list

type report = {
  mode : Pass.mode;
  result : Pass.result;  (** identical to what {!Engine.run} returns *)
  pass_certs : pass_cert list;
  plan_certs : (Program.id * Analysis.Transval.cert) list;
  diags : Diagnostics.t list;
}

(** The certificate-bearing errors ([LL620]–[LL623], [LL650]–[LL652])
    in the report. *)
val cert_errors : report -> Diagnostics.t list

val proved : report -> bool

(** ["proved"], ["refuted"], or ["skipped"] (legacy mode: the padded
    baseline is costed, never lowered, so there is nothing to certify
    beyond the pass diffs). *)
val status : report -> string

(** Run the engine pipeline under full certification: per-pass
    snapshot/diff observation plus plan certification of every
    materialized conversion.  [result] is bit-for-bit what
    {!Engine.run} computes — the observer only reads the state.
    [chooser] selects the layout-assignment strategy (greedy by
    default); pass {!Assign_search.chooser_of_script} with a winning
    script to certify a search assignment. *)
val run :
  Gpusim.Machine.t ->
  mode:Pass.mode ->
  ?num_warps:int ->
  ?chooser:Strategy.t ->
  Program.t ->
  report

(** One JSON object per engine run, the CI [certificates.json] row
    format. *)
val to_json : kernel:string -> machine:string -> report -> string
