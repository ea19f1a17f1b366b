(* The pass pipeline itself: manager ordering, pass selection by list
   filtering, the after-pass hook, per-pass diagnostic attribution,
   span attributes built only while tracing, simplify's
   cost-invariance, and engine rerun idempotency. *)

open Tir

let m = Gpusim.Machine.gh200

let tiny_program () =
  let p = Program.create () in
  let x = Program.load p ~name:"x" ~shape:[| 16; 32 |] ~dtype:Tensor_lib.Dtype.F32 () in
  ignore (Program.store p x);
  p

let fake name =
  (module struct
    let name = name
    let description = "test pass"

    let run (st : Pass.state) =
      st.Pass.unsupported <- name :: st.Pass.unsupported
  end : Pass.PASS)

(* The pass list without the named passes: how a caller disables one. *)
let without names passes =
  List.filter (fun p -> not (List.mem (Passes.name p) names)) passes

let test_ordering () =
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  let report = Pass_manager.run (Pass_manager.config [ fake "p1"; fake "p2"; fake "p3" ]) st in
  Alcotest.(check (list string))
    "effects in list order" [ "p1"; "p2"; "p3" ]
    (Pass.result st).Pass.unsupported;
  Alcotest.(check (list string))
    "reports in list order" [ "p1"; "p2"; "p3" ]
    (List.map (fun (p : Pass_manager.pass_report) -> p.Pass_manager.pass) report.Pass_manager.pass_reports)

let test_disabled () =
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  let report =
    Pass_manager.run
      (Pass_manager.config (without [ "p2" ] [ fake "p1"; fake "p2"; fake "p3" ]))
      st
  in
  Alcotest.(check (list string))
    "disabled pass has no effect" [ "p1"; "p3" ]
    (Pass.result st).Pass.unsupported;
  Alcotest.(check (list string))
    "disabled pass not reported" [ "p1"; "p3" ]
    (List.map (fun (p : Pass_manager.pass_report) -> p.Pass_manager.pass) report.Pass_manager.pass_reports)

let test_dump_hook () =
  let fired = ref [] in
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  let hook name _st = fired := name :: !fired in
  ignore (Pass_manager.run (Pass_manager.config ~after_pass:hook Passes.default) st);
  Alcotest.(check (list string))
    "hook fires once per pass, in order"
    (List.map Passes.name Passes.default)
    (List.rev !fired);
  fired := [];
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  let filtered name st = if name = "lower" then hook name st in
  ignore (Pass_manager.run (Pass_manager.config ~after_pass:filtered Passes.default) st);
  Alcotest.(check (list string)) "filter restricts the hook" [ "lower" ] !fired

let test_diag_pass_names () =
  (* Synthetic: a pass's own warning is attributed to it. *)
  let warner =
    (module struct
      let name = "warner"
      let description = "emits one diagnostic"
      let run st = Pass.warn st ~code:"LL799" "synthetic"
    end : Pass.PASS)
  in
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  ignore (Pass_manager.run (Pass_manager.config [ warner ]) st);
  Alcotest.(check (list (option string)))
    "synthetic diagnostic tagged" [ Some "warner" ]
    (List.map (fun (d : Linear_layout.Diagnostics.t) -> d.Linear_layout.Diagnostics.pass) st.Pass.diags);
  (* Organic: skipping backward_remat leaves stores unplanned; [lower]
     reports that, and the manager attributes the diagnostic to it. *)
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  ignore
    (Pass_manager.run (Pass_manager.config (without [ "backward_remat" ] Passes.default)) st);
  Alcotest.(check bool) "lower warned about the unplanned store" true (st.Pass.diags <> []);
  List.iter
    (fun (d : Linear_layout.Diagnostics.t) ->
      Alcotest.(check (option string)) "organic diagnostic tagged" (Some "lower")
        d.Linear_layout.Diagnostics.pass;
      Alcotest.(check string) "code" "LL701" d.Linear_layout.Diagnostics.code)
    st.Pass.diags;
  (* An after hook's findings are tagged with the pass it ran after. *)
  let k = Kernels.find "gemm" in
  let st =
    Pass.init m ~mode:Engine.Linear (k.Kernels.build ~size:(List.hd k.Kernels.sizes))
  in
  let found = ref 0 in
  let lint_after_lower name (st : Pass.state) =
    if name = "lower" then begin
      let d0 = List.length st.Pass.diags in
      Validate.lint_hook name st;
      found := List.length st.Pass.diags - d0
    end
  in
  ignore
    (Pass_manager.run (Pass_manager.config ~after_pass:lint_after_lower Passes.default) st);
  Alcotest.(check bool) "the lint hook found something" true (!found > 0);
  List.iter
    (fun (d : Linear_layout.Diagnostics.t) ->
      Alcotest.(check (option string)) "hook diagnostics tagged" (Some "lower")
        d.Linear_layout.Diagnostics.pass)
    st.Pass.diags

(* {1 Span attributes}

   A pass span's attributes are rendered from its [pass_report], and only
   while a trace sink is installed: with tracing off, the per-pass cost
   of the driver is its report and bookkeeping, with no attribute
   strings or lists. *)

let noop name =
  (module struct
    let name = name
    let description = "does nothing"
    let run (_ : Pass.state) = ()
  end : Pass.PASS)

(* Minor words the driver allocates per added no-op pass, tracing off:
   the difference between a 32-pass and a 16-pass run of a warm
   pipeline, over the 16 added passes.  [drive] is {!Pass_manager.run},
   which builds a report, or {!Pass_manager.exec}, which does not. *)
let words_per_pass drive =
  let run n =
    let config = Pass_manager.config (List.init n (fun i -> noop (Printf.sprintf "noop%02d" i))) in
    let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
    drive config st;
    let w0 = Gc.minor_words () in
    drive config st;
    Gc.minor_words () -. w0
  in
  (run 32 -. run 16) /. 16.

let test_untraced_builds_no_attrs () =
  Alcotest.(check bool) "tracing is off" false (Obs.enabled ());
  let reported = words_per_pass (fun c st -> ignore (Pass_manager.run c st)) in
  (* A reported pass costs its report record, its boxed floats and
     clock reads, the option around the record and the list cell: 26
     words.  Rendering the six span attributes (strings, pairs, list
     cells and a Printf) would add about 110 more.  A pass run without
     a report allocates nothing of the driver's. *)
  if reported > 30. then
    Alcotest.failf "%.1f minor words per untraced reported pass (bound 30)" reported;
  let unreported = words_per_pass Pass_manager.exec in
  if unreported > 0. then
    Alcotest.failf "%.1f minor words per untraced unreported pass (bound 0)" unreported

(* Minor words of a warm [Engine.run], averaged over the runnable
   RTX4090 kernels at their smallest size: the daemon's ENGINE verb
   spends most of its words here.  The mean was 2,166 words before the
   driver stopped building reports nobody reads, layout lookups and
   warp sector counts stopped allocating closures and reduction rounds
   stopped building basis lists; it is now 1,090. *)
let test_warm_engine_words () =
  let m = Gpusim.Machine.rtx4090 in
  let progs =
    List.filter_map
      (fun (k : Kernels.kernel) ->
        if
          (k.Kernels.needs_wgmma && not m.Gpusim.Machine.has_wgmma)
          || (k.Kernels.needs_large_smem && m.Gpusim.Machine.smem_bytes < 128 * 1024)
        then None
        else Some (k.Kernels.build ~size:(List.fold_left min max_int k.Kernels.sizes)))
      Kernels.all
  in
  List.iter (fun p -> ignore (Engine.run m ~mode:Engine.Linear p)) progs;
  let w0 = Gc.minor_words () in
  List.iter (fun p -> ignore (Engine.run m ~mode:Engine.Linear p)) progs;
  let mean = (Gc.minor_words () -. w0) /. float_of_int (List.length progs) in
  if mean > 1200. then
    Alcotest.failf "a warm Engine.run allocates %.0f minor words on average (bound 1,200)" mean

let test_traced_attr_keys () =
  let t = Obs.Trace.create () in
  let st = Pass.init m ~mode:Engine.Linear (tiny_program ()) in
  Obs.Trace.with_sink t (fun () ->
      ignore (Pass_manager.run (Pass_manager.config Passes.default) st));
  let ends prefix =
    List.filter
      (fun (e : Obs.Trace.event) ->
        e.Obs.Trace.phase = Obs.Trace.End && String.starts_with ~prefix e.Obs.Trace.name)
      (Obs.Trace.events t)
  in
  let keys (e : Obs.Trace.event) = List.map fst e.Obs.Trace.attrs in
  let passes = ends "pass/" in
  Alcotest.(check (list string)) "one span per pass"
    (List.map (fun p -> "pass/" ^ Passes.name p) Passes.default)
    (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.name) passes);
  List.iter
    (fun e ->
      Alcotest.(check (list string)) "pass span attribute keys"
        [ "diagnostics"; "cost_delta"; "plan_cache.hits"; "plan_cache.misses"; "memo.hits"; "memo.misses" ]
        (keys e))
    passes;
  Alcotest.(check (list (list string))) "pipeline span attribute keys"
    [ [ "passes"; "strategy"; "decisions" ] ]
    (List.map keys (ends "pipeline"))

(* A compact version of test_engine_fuzz's program generator: random
   2-D f32 op DAGs. *)
let gen_program =
  QCheck.Gen.(
    let* rows = oneofl [ 16; 32 ] in
    let* cols = oneofl [ 32; 64 ] in
    let shape = [| rows; cols |] in
    let* n_ops = int_range 3 10 in
    let* seeds = list_repeat n_ops (pair (int_bound 6) (int_bound 1000)) in
    return
      (let p = Program.create () in
       let x = Program.load p ~name:"x" ~shape ~dtype:Tensor_lib.Dtype.F32 () in
       let y = Program.load p ~name:"y" ~shape ~dtype:Tensor_lib.Dtype.F32 () in
       let live = ref [ x; y ] in
       let pick k = List.nth !live (k mod List.length !live) in
       List.iter
         (fun (op, k) ->
           let v = pick k in
           let id =
             match op with
             | 0 | 1 -> Program.elementwise p ~name:"exp" [ v ]
             | 2 -> Program.elementwise p ~name:"add" [ v; pick (k + 1) ]
             | 3 ->
                 let r = Program.reduce p v ~axis:1 in
                 let e = Program.expand_dims p r ~axis:1 in
                 Program.broadcast p e ~shape
             | 4 ->
                 let t = Program.trans p v ~perm:[| 1; 0 |] in
                 Program.trans p t ~perm:[| 1; 0 |]
             | 5 -> Program.scan p v ~axis:1 ~reverse:(k land 1 = 1)
             | _ -> Program.elementwise p ~name:"mul" [ v; pick (k + 7) ]
           in
           live := id :: !live)
         seeds;
       ignore (Program.store p (List.hd !live));
       p))

let arb_program =
  QCheck.make gen_program ~print:(fun p -> Format.asprintf "%a" Program.pp p)

let cost_sig (c : Gpusim.Cost.t) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d" c.Gpusim.Cost.smem_wavefronts
    c.Gpusim.Cost.smem_insts c.Gpusim.Cost.shuffles c.Gpusim.Cost.gmem_transactions
    c.Gpusim.Cost.gmem_insts c.Gpusim.Cost.ldmatrix c.Gpusim.Cost.alu c.Gpusim.Cost.mma
    c.Gpusim.Cost.barriers

let result_sig (r : Engine.result) =
  Printf.sprintf "%s | %d %d %d %d %d %d %d" (cost_sig r.Engine.cost) r.Engine.converts
    r.Engine.noop_converts r.Engine.local_loads r.Engine.local_stores r.Engine.remats
    (List.length r.Engine.unsupported)
    (List.length r.Engine.conversions)

(* Folding an equal-layout request removes a plan that would have been
   a zero-cost no-op anyway (in linear mode): disabling [simplify] must
   never change the program cost. *)
let prop_simplify_cost_invariant =
  QCheck.Test.make ~name:"simplify never changes program cost (linear)" ~count:100
    arb_program (fun p ->
      let with_simplify =
        let st = Pass.init m ~mode:Engine.Linear p in
        ignore (Pass_manager.run (Pass_manager.config Passes.default) st);
        (Pass.result st).Pass.cost
      in
      let without_simplify =
        let st = Pass.init m ~mode:Engine.Linear p in
        ignore
          (Pass_manager.run (Pass_manager.config (without [ "simplify" ] Passes.default)) st);
        (Pass.result st).Pass.cost
      in
      cost_sig with_simplify = cost_sig without_simplify)

let test_rerun_idempotent () =
  List.iter
    (fun (k : Kernels.kernel) ->
      let size = List.hd k.Kernels.sizes in
      let p = k.Kernels.build ~size in
      let first = result_sig (Engine.run m ~mode:Engine.Linear p) in
      let second = result_sig (Engine.run m ~mode:Engine.Linear p) in
      Alcotest.(check string) (k.Kernels.name ^ " rerun") first second;
      (* A legacy run in between must not leak state into a linear one. *)
      ignore (Engine.run m ~mode:Engine.Legacy_mode p);
      let third = result_sig (Engine.run m ~mode:Engine.Linear p) in
      Alcotest.(check string) (k.Kernels.name ^ " after legacy") first third;
      let fresh = result_sig (Engine.run m ~mode:Engine.Linear (k.Kernels.build ~size)) in
      Alcotest.(check string) (k.Kernels.name ^ " vs fresh build") first fresh)
    Kernels.all

let test_registry () =
  let names = List.map Passes.name Passes.default in
  Alcotest.(check (list string)) "registered names"
    [ "anchor"; "forward_propagate"; "simplify"; "backward_remat"; "insert_conversions"; "lower" ]
    names;
  List.iter
    (fun n ->
      match Passes.find n with
      | Some p ->
          Alcotest.(check string) "find returns the pass" n (Passes.name p);
          Alcotest.(check bool) "has description" true (Passes.description p <> "")
      | None -> Alcotest.failf "pass %s not found" n)
    names;
  Alcotest.(check bool) "unknown pass" true (Passes.find "nonesuch" = None);
  Alcotest.(check bool) "checks are not passes" true (Passes.find "analyze" = None)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pipeline"
    [
      ( "manager",
        [
          Alcotest.test_case "ordering respected" `Quick test_ordering;
          Alcotest.test_case "disabled pass skipped" `Quick test_disabled;
          Alcotest.test_case "dump-after hook" `Quick test_dump_hook;
          Alcotest.test_case "diagnostics carry pass names" `Quick test_diag_pass_names;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "untraced run builds no span attributes" `Quick
            test_untraced_builds_no_attrs;
          Alcotest.test_case "traced pass spans keep their attribute keys" `Quick
            test_traced_attr_keys;
          Alcotest.test_case "warm Engine.run words within budget" `Quick
            test_warm_engine_words;
        ] );
      ("simplify", q [ prop_simplify_cost_invariant ]);
      ( "idempotency",
        [ Alcotest.test_case "rerun and cross-mode" `Quick test_rerun_idempotent ] );
    ]
