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

    The observer plugs into {!Pass_manager.config}'s [before_pass] /
    [after_pass] hooks, so refutations are attributed to the offending
    pass. *)

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

(** A stateful observer pairing the two hooks: [before_pass] snapshots,
    [after_pass] diffs, accumulates certificates and appends refutation
    diagnostics to the state (inside the manager's attribution window,
    so they are tagged with the offending pass). *)
type observer

val observer : unit -> observer
val before_pass : observer -> Pass_manager.hook
val after_pass : observer -> Pass_manager.hook

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
  ?trace:Obs.Trace.t ->
  ?chooser:Strategy.t ->
  Program.t ->
  report

(** One JSON object per engine run, the CI [certificates.json] row
    format. *)
val to_json : kernel:string -> machine:string -> report -> string
