open Linear_layout

type pass_report = {
  pass : string;
  wall_ms : float;
  diagnostics : int;
  cost_delta : float;
  plan_cache_hits : int;
  plan_cache_misses : int;
  memo_hits : int;
  memo_misses : int;
}

type report = { pass_reports : pass_report list; total_ms : float }
type hook = string -> Pass.state -> unit

type config = { passes : Pass.t list; before_pass : hook option; after_pass : hook option }

let config ?before_pass ?after_pass passes = { passes; before_pass; after_pass }

(* One pass under the driver.  Diagnostic attribution and the hooks
   always run; the measurements behind a {!pass_report} (cost, wall
   clock, cache deltas) are taken only when [measured], and a pass run
   unmeasured allocates nothing of the driver's own.  A pass's span
   records exactly when instrumentation is on, and its attributes are
   rendered from the report, so the caller measures whenever
   [Obs.enabled ()]. *)
let run_pass config ~measured (st : Pass.state) (module P : Pass.PASS) =
  let d0 = List.length st.Pass.diags in
  let plan_hits0 = if measured then Codegen.Plan_cache.hits () else 0
  and plan_misses0 = if measured then Codegen.Plan_cache.misses () else 0 in
  let memo_hits0 = if measured then Layout.Memo.hits () else 0
  and memo_misses0 = if measured then Layout.Memo.misses () else 0 in
  let cost0 = if measured then Gpusim.Cost.estimate st.Pass.machine st.Pass.total else 0. in
  (match config.before_pass with Some hook -> hook P.name st | None -> ());
  (* The span's name is built only for a span that records. *)
  let span = Obs.Span.enter (if Obs.enabled () then "pass/" ^ P.name else P.name) in
  let p0 = if measured then Obs.Clock.now () else 0. in
  P.run st;
  let wall_ms = if measured then 1000. *. (Obs.Clock.now () -. p0) else 0. in
  (* The after hook runs before diagnostic attribution so that anything
     it appends (e.g. per-pass lints or translation validation
     refutations) is tagged with this pass's name. *)
  (match config.after_pass with Some hook -> hook P.name st | None -> ());
  let diagnostics = List.length st.Pass.diags - d0 in
  if diagnostics > 0 then
    st.Pass.diags <-
      List.mapi
        (fun idx d -> if idx >= d0 then Diagnostics.with_pass P.name d else d)
        st.Pass.diags;
  if not measured then begin
    Obs.Span.exit span;
    None
  end
  else begin
    let r =
      {
        pass = P.name;
        wall_ms;
        diagnostics;
        cost_delta = Gpusim.Cost.estimate st.Pass.machine st.Pass.total -. cost0;
        plan_cache_hits = Codegen.Plan_cache.hits () - plan_hits0;
        plan_cache_misses = Codegen.Plan_cache.misses () - plan_misses0;
        memo_hits = Layout.Memo.hits () - memo_hits0;
        memo_misses = Layout.Memo.misses () - memo_misses0;
      }
    in
    if Obs.Span.live span then
      Obs.Span.exit span
        ~attrs:
          [
            ("diagnostics", string_of_int r.diagnostics);
            ("cost_delta", Printf.sprintf "%.1f" r.cost_delta);
            ("plan_cache.hits", string_of_int r.plan_cache_hits);
            ("plan_cache.misses", string_of_int r.plan_cache_misses);
            ("memo.hits", string_of_int r.memo_hits);
            ("memo.misses", string_of_int r.memo_misses);
          ];
    Some r
  end

(* The one loop over the passes: conses the measured reports onto
   [acc], newest first.  Unmeasured, every [run_pass] is [None] and the
   loop allocates nothing. *)
let rec run_passes config ~measured st acc = function
  | [] -> acc
  | p :: rest -> (
      match run_pass config ~measured st p with
      | None -> run_passes config ~measured st acc rest
      | Some r -> run_passes config ~measured st (r :: acc) rest)

let drive config ~measured (st : Pass.state) =
  let pipeline = Obs.Span.enter "pipeline" in
  let reports = run_passes config ~measured st [] config.passes in
  if Obs.Span.live pipeline then
    Obs.Span.exit pipeline
      ~attrs:
        [
          ("passes", string_of_int (List.length config.passes));
          ("strategy", st.Pass.chooser.Strategy.name);
          ("decisions", string_of_int (List.length st.Pass.decisions));
        ];
  reports

let run config st =
  let t0 = Obs.Clock.now () in
  let reports = drive config ~measured:true st in
  { pass_reports = List.rev reports; total_ms = 1000. *. (Obs.Clock.now () -. t0) }

let exec config st = ignore (drive config ~measured:(Obs.enabled ()) st : pass_report list)

(* {1 Reporting} *)

let pp_report ppf r =
  Format.fprintf ppf "%-20s %9s %6s %10s %11s %11s@."
    "pass" "ms" "diags" "cost-delta" "plan h/m" "memo h/m";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-20s %9.3f %6d %10.1f %5d/%-5d %5d/%-5d@." p.pass p.wall_ms
        p.diagnostics p.cost_delta p.plan_cache_hits p.plan_cache_misses p.memo_hits
        p.memo_misses)
    r.pass_reports;
  Format.fprintf ppf "%-20s %9.3f@." "total" r.total_ms

let to_json r =
  let pass p =
    Printf.sprintf
      "{\"pass\":\"%s\",\"wall_ms\":%.6f,\"diagnostics\":%d,\"cost_delta\":%.6f,\"plan_cache\":{\"hits\":%d,\"misses\":%d},\"memo\":{\"hits\":%d,\"misses\":%d}}"
      (Diagnostics.json_escape p.pass)
      p.wall_ms p.diagnostics p.cost_delta p.plan_cache_hits p.plan_cache_misses
      p.memo_hits p.memo_misses
  in
  Printf.sprintf "{\"total_ms\":%.6f,\"passes\":[%s]}" r.total_ms
    (String.concat "," (List.map pass r.pass_reports))

(* Default dump-after printer: the per-instruction layout assignment as
   it stands, plus the running totals. *)
let pp_state ppf (st : Pass.state) =
  Program.iteri
    (fun i (ins : Program.instr) ->
      Format.fprintf ppf "%%%d %s : %s@." i
        (Legacy.Support.kind_name ins.Program.kind)
        (match ins.Program.layout with
        | None -> "(no layout)"
        | Some l -> Layout.to_string l))
    st.Pass.prog;
  Format.fprintf ppf
    "cost so far: %a@.pending %d, conversions %d, converts %d, noops %d, folded %d, \
     remats %d@."
    Gpusim.Cost.pp st.Pass.total
    (List.length st.Pass.pending)
    (List.length st.Pass.convs)
    st.Pass.converts st.Pass.noops st.Pass.folded st.Pass.remats
