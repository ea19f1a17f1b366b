(** Cost-driven beam search over the layout-assignment decision tree.

    A {e script} forces a prefix of decision-site choices (greedy
    completion beyond); beam search keeps the [beam] cheapest partial
    assignments per depth under the planner cost model, branching in
    parallel via {!Par_eval} (deterministic for any [domains] count),
    pruning candidates that are infeasible as distributed linear
    layouts, and finally re-pricing the short-list with the exact
    {!Analysis.Static_cost} objective.  The greedy root always stays in
    the short-list, so the winner's objective is never above greedy's;
    a short-list candidate is additionally vetoed when it has more
    error-severity {!Lint} findings than the greedy baseline, so search
    never trades analyzer cleanliness for cost.

    Both the re-price and the lint gate read per-plan verdicts (see
    {!Analysis.Static_cost.plan_errors}): each conversion plan the
    plan caches hand out is priced and checked once per domain, and a
    repeated search over warm caches computes no check again. *)

type params = { beam : int; domains : int }

type stats = {
  sites : int;  (** decision sites along the winning path *)
  explored : int;  (** full pipeline evaluations *)
  pruned : int;
      (** beam-cut partial assignments plus infeasible/duplicate
          anchor candidates cut before costing *)
  greedy_cost : float;  (** objective of the greedy assignment *)
  best_cost : float;  (** objective of the winner ([<= greedy_cost]) *)
}

type outcome = {
  result : Pass.result;  (** the winner, replayed onto the caller's program *)
  script : int list;  (** the winning forced prefix (replayable) *)
  stats : stats;
}

(** A strategy replaying a forced prefix with greedy completion.  Build
    a fresh value per engine run (the cursor is private run state);
    replaying an {!outcome.script} through {!Pass.init} — or
    {!Certify.run} — reproduces the winning assignment exactly. *)
val chooser_of_script : int list -> Strategy.t

(** The search objective: planner model cost with every lowerable
    conversion re-priced by the exact static cost of its lowered
    stream (see {!Analysis.Static_cost.reprice_conversion}, which
    computes each plan's price once). *)
val objective : Gpusim.Machine.t -> Pass.result -> float

(** [shortlist machine ~mode ?num_warps ?params prog] runs the beam
    exploration of {!run} and returns the candidates {!run} re-prices
    and lint-gates, greedy root first: each as its script, the private
    program copy it was evaluated on, and its pipeline result.  [prog]
    is not modified. *)
val shortlist :
  Gpusim.Machine.t ->
  mode:Pass.mode ->
  ?num_warps:int ->
  ?params:params ->
  Program.t ->
  (int list * Program.t * Pass.result) list

val run :
  Gpusim.Machine.t ->
  mode:Pass.mode ->
  ?num_warps:int ->
  ?params:params ->
  Program.t ->
  outcome
