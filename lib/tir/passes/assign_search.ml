(* {1 Cost-driven beam search over layout-assignment decisions}

   The greedy walk (Assign_greedy) commits every decision site locally.
   This module instead explores the decision tree: a {e script} is a
   forced prefix of choices — site [k] takes the scripted candidate for
   [k < |script|], greedy completion beyond — and every script is
   evaluated by running the full pass pipeline on a private copy of the
   program.  Beam search keeps the [beam] cheapest partial assignments
   per depth (planner model cost), branches each at its next site, and
   finally re-prices the short-list with the exact {!Analysis.Static_cost}
   pricing of every lowerable conversion (the proven static≡dynamic
   objective).  The greedy root is always in the short-list, so search
   is never worse than greedy on the objective.

   Determinism: scripts are generated in frontier×choice order,
   evaluated via {!Par_eval.map} (round-robin, index-order merge), the
   beam is cut by a stable sort on cost, and the winner is taken with a
   strict [<] in short-list order — so the winner and its cost are
   identical for any [domains] count. *)

type params = { beam : int; domains : int }

let default_params = { beam = 4; domains = 1 }

type stats = {
  sites : int;  (* decision sites along the winning path *)
  explored : int;  (* full pipeline evaluations *)
  pruned : int;  (* beam-cut partial assignments + infeasible/duplicate candidates *)
  greedy_cost : float;  (* objective of the greedy assignment *)
  best_cost : float;  (* objective of the winner (<= greedy_cost) *)
}

type outcome = { result : Pass.result; script : int list; stats : stats }

(* Replays a forced prefix, completes greedily.  Fresh per run: the
   cursor is private state across the sites of one pipeline walk. *)
let chooser_of_script script =
  let rem = ref script in
  {
    Strategy.name = "search";
    choose =
      (fun site ->
        match !rem with
        | c :: tl ->
            rem := tl;
            c
        | [] -> Assign_greedy.choose site);
  }

(* The search objective: planner model cost with every lowerable
   conversion re-priced by the exact static cost of its instruction
   stream (see {!Analysis.Static_cost.reprice_conversion}).
   Conversions with no warp-level lowering — legacy round trips,
   cross-CTA plans — keep their model cost. *)
let objective machine (r : Pass.result) =
  List.fold_left
    (fun t (c : Pass.conversion_info) ->
      match c.Pass.plan with
      | None -> t
      | Some plan -> (
          match Analysis.Static_cost.reprice_conversion machine plan with
          | None -> t
          | Some m ->
              t
              -. Gpusim.Cost.estimate machine c.Pass.conv_cost
              +. Gpusim.Cost.estimate machine m))
    (Gpusim.Cost.estimate machine r.Pass.cost)
    r.Pass.conversions

type entry = {
  script : int list;  (* forced prefix *)
  model_cost : float;
  result : Pass.result;
  prog : Program.t;  (* the private copy the script was evaluated on *)
  choices : (Strategy.site * int) array;  (* every site of the run, in order *)
}

let rec take k = function
  | [] -> []
  | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl

let pipeline = Pass_manager.exec (Pass_manager.config Passes.default)

(* Beam exploration: the greedy root, the short-list to re-price (root
   excluded), and the explored/pruned counts. *)
let explore machine ~mode ?num_warps ~beam ~domains prog =
  let eval script =
    let p = Program.copy prog in
    let st = Pass.init machine ~mode ?num_warps ~chooser:(chooser_of_script script) p in
    pipeline st;
    let r = Pass.result st in
    {
      script;
      model_cost = Gpusim.Cost.estimate machine r.Pass.cost;
      result = r;
      prog = p;
      choices = Array.of_list (List.rev st.Pass.decisions);
    }
  in
  let root = eval [] in
  let explored = ref 1 and pruned = ref 0 in
  let pool = ref [ root ] (* reverse evaluation order *) in
  let frontier = ref [ root ] in
  let depth = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let d = !depth in
    (* Branch every frontier entry at its site of index [d]: one child
       per non-taken candidate, the parent itself carries the taken
       one forward.  Distinct entries differ in an earlier effective
       choice, so child scripts never collide. *)
    let child_scripts =
      List.concat_map
        (fun e ->
          if Array.length e.choices <= d then []
          else begin
            let site, taken = e.choices.(d) in
            (match site with
            | Strategy.Anchor a ->
                pruned := !pruned + snd (Lazy.force a.anchor_alternatives)
            | _ -> ());
            let prefix = List.init d (fun k -> snd e.choices.(k)) in
            List.init (Strategy.arity site) Fun.id
            |> List.filter (fun c -> c <> taken)
            |> List.map (fun c -> prefix @ [ c ])
          end)
        !frontier
    in
    match child_scripts with
    | [] -> continue_ := false
    | _ ->
        let scripts = Array.of_list child_scripts in
        let children =
          Par_eval.map ~domains (Array.length scripts) (fun i ->
              eval scripts.(i))
          |> Array.to_list
        in
        explored := !explored + List.length children;
        pool := List.rev_append children !pool;
        let candidates =
          List.filter
            (fun e -> Array.length e.choices > d + 1)
            (!frontier @ children)
        in
        let ranked =
          List.stable_sort (fun a b -> compare a.model_cost b.model_cost) candidates
        in
        let kept = take beam ranked in
        pruned := !pruned + (List.length ranked - List.length kept);
        frontier := kept;
        incr depth;
        if kept = [] then continue_ := false
  done;
  (* Exact re-pricing of the short-list: the model ranks the pool, the
     proven static pricing picks the winner.  The greedy root leads the
     short-list and ties break on strict [<], so the winner's objective
     is never above greedy's.  A candidate must also not regress the
     lint sweep relative to the greedy baseline — a cheaper assignment
     that trips more analyzer errors (e.g. extra LL301s from an anchor
     the bank certifier cannot predict) is rejected. *)
  let shortlist =
    List.rev !pool
    |> List.stable_sort (fun a b -> compare a.model_cost b.model_cost)
    |> take (max beam 4)
    |> List.filter (fun e -> e != root)
  in
  (root, shortlist, !explored, !pruned)

let shortlist machine ~mode ?num_warps ?(params = default_params) prog =
  let root, shortlist, _, _ =
    explore machine ~mode ?num_warps ~beam:(max 1 params.beam) ~domains:params.domains prog
  in
  List.map (fun (e : entry) -> (e.script, e.prog, e.result)) (root :: shortlist)

let run machine ~mode ?num_warps ?(params = default_params) prog =
  let beam = max 1 params.beam in
  let span =
    Obs.Span.enter "search/beam" ~attrs:[ ("beam", string_of_int beam) ]
  in
  let root, shortlist, explored, pruned =
    explore machine ~mode ?num_warps ~beam ~domains:params.domains prog
  in
  let lint_errors e = List.length (Lint.errors machine ~result:e.result) in
  let baseline_lint = lazy (lint_errors root) in
  let score e = (objective machine e.result, e.model_cost) in
  let root_score = score root in
  let best = ref root and best_score = ref root_score in
  List.iter
    (fun e ->
      let s = score e in
      if s < !best_score && lint_errors e <= Lazy.force baseline_lint then begin
        best := e;
        best_score := s
      end)
    shortlist;
  let winner = !best in
  (* Replay the winner on the caller's program — the {!Engine.run}
     contract is an in-place assignment — and hand its result back. *)
  let st =
    Pass.init machine ~mode ?num_warps ~chooser:(chooser_of_script winner.script) prog
  in
  pipeline st;
  let result = Pass.result st in
  let stats =
    {
      sites = Array.length winner.choices;
      explored;
      pruned;
      greedy_cost = fst root_score;
      best_cost = fst !best_score;
    }
  in
  if Obs.enabled () then begin
    Obs.Metrics.incr ~by:stats.explored "engine.search.explored";
    Obs.Metrics.incr ~by:stats.pruned "engine.search.pruned"
  end;
  if Obs.Span.live span then
    Obs.Span.exit span
      ~attrs:
        [
          ("explored", string_of_int stats.explored);
          ("pruned", string_of_int stats.pruned);
          ("greedy.cost", Printf.sprintf "%.4f" stats.greedy_cost);
          ("winner.cost", Printf.sprintf "%.4f" stats.best_cost);
        ];
  { result; script = winner.script; stats }
