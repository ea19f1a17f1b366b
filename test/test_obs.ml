(* The observability layer: export round-trips (qcheck), metric-merge
   algebra (qcheck), domain safety of the metrics registry and the trace
   ring, and the fast path staying inert while disabled. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 qcheck: span forest -> Chrome JSON -> same forest} *)

let name_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            "pipeline";
            "pass/anchor";
            "a";
            "with space";
            "q\"uote";
            "back\\slash";
            "tab\there";
            "nl\nline";
            "";
          ];
        small_string ~gen:printable;
      ])

let attr_gen = QCheck.Gen.pair name_gen name_gen

let tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self size ->
           map3
             (fun name attrs children -> { Obs.Export.name; attrs; children })
             name_gen
             (list_size (int_bound 3) attr_gen)
             (if size <= 0 then return []
              else list_size (int_bound 3) (self (size / 2)))))

let forest_gen = QCheck.Gen.list_size (QCheck.Gen.int_bound 3) tree_gen

let rec print_tree (t : Obs.Export.tree) =
  Printf.sprintf "{name=%S; attrs=[%s]; children=[%s]}" t.Obs.Export.name
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%S,%S" k v) t.Obs.Export.attrs))
    (String.concat ";" (List.map print_tree t.Obs.Export.children))

let forest_arb =
  QCheck.make ~print:(fun f -> String.concat " " (List.map print_tree f)) forest_gen

let qcheck_roundtrip =
  QCheck.Test.make ~name:"chrome export round-trips span forests" ~count:300 forest_arb
    (fun forest ->
      let json = Obs.Export.chrome_json (Obs.Export.events_of_trees forest) in
      match Obs.Export.parse_chrome json with
      | Error e -> QCheck.Test.fail_reportf "parse_chrome failed: %s" e
      | Ok events -> Obs.Export.tree_of_events events = forest)

(* {1 qcheck: merge is associative and commutative} *)

(* Keys are drawn from a fixed sorted pool so generated snapshots honor
   the sorted-assoc-list invariant of [Obs.Metrics.snapshot]. *)
let keys = [ "alpha"; "beta"; "gamma"; "delta" ]

let assoc_gen vgen =
  QCheck.Gen.(
    map
      (fun l -> List.filter_map Fun.id l)
      (flatten_l
         (List.map
            (fun k -> oneof [ return None; map (fun v -> Some (k, v)) vgen ])
            keys)))

let snapshot_gen =
  QCheck.Gen.(
    map2
      (fun counters histograms -> { Obs.Metrics.counters; histograms })
      (assoc_gen (int_bound 1000))
      (assoc_gen (map Array.of_list (list_size (int_bound 6) (int_bound 5)))))

let snapshot_arb = QCheck.make ~print:Obs.Metrics.to_json snapshot_gen

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"metrics merge is commutative" ~count:300
    (QCheck.pair snapshot_arb snapshot_arb) (fun (a, b) ->
      Obs.Metrics.snapshot_equal (Obs.Metrics.merge a b) (Obs.Metrics.merge b a))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"metrics merge is associative" ~count:300
    (QCheck.triple snapshot_arb snapshot_arb snapshot_arb) (fun (a, b, c) ->
      Obs.Metrics.snapshot_equal
        (Obs.Metrics.merge a (Obs.Metrics.merge b c))
        (Obs.Metrics.merge (Obs.Metrics.merge a b) c))

(* {1 Units} *)

let test_disabled_is_inert () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr "off.counter";
  Obs.Metrics.observe "off.histo" 3;
  let span = Obs.Span.enter "off" in
  Obs.Span.exit span;
  check_int "counter untouched" 0 (Obs.Metrics.counter_value "off.counter");
  check_int "no metric names" 0 (List.length (Obs.Metrics.names (Obs.Metrics.snapshot ())));
  check_bool "no sink" true (Obs.Trace.current () = None)

let test_fixed_clock () =
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  Obs.Clock.fixed ();
  Alcotest.(check (float 1e-12)) "starts at 0" 0.0 (Obs.Clock.now ());
  Alcotest.(check (float 1e-12)) "advances 1ms" 0.001 (Obs.Clock.now ());
  Obs.Clock.fixed ~start:2. ~step:0.5 ();
  Alcotest.(check (float 1e-12)) "restart" 2.0 (Obs.Clock.now ());
  Alcotest.(check (float 1e-12)) "custom step" 2.5 (Obs.Clock.now ())

let test_ring_overwrite () =
  let t = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.record t
      {
        Obs.Trace.phase = Obs.Trace.Instant;
        name = string_of_int i;
        ts = 0.;
        tid = 0;
        attrs = [];
      }
  done;
  check_int "length saturates" 4 (Obs.Trace.length t);
  check_int "dropped" 2 (Obs.Trace.dropped t);
  Alcotest.(check (list string))
    "oldest first, oldest dropped" [ "3"; "4"; "5"; "6" ]
    (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events t));
  Obs.Trace.clear t;
  check_int "cleared" 0 (Obs.Trace.length t)

let test_span_error_attr () =
  let t = Obs.Trace.create () in
  Obs.Trace.with_sink t (fun () ->
      try Obs.Span.with_ "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  match Obs.Export.tree_of_events (Obs.Trace.events t) with
  | [ node ] ->
      Alcotest.(check string) "span name" "boom" node.Obs.Export.name;
      check_bool "error attribute recorded" true
        (List.mem_assoc "error" node.Obs.Export.attrs)
  | forest -> Alcotest.failf "expected one root span, got %d" (List.length forest)

let test_with_sink_restores () =
  check_bool "disabled before" true (not (Obs.enabled ()));
  let t = Obs.Trace.create () in
  Obs.Trace.with_sink t (fun () ->
      check_bool "enabled inside" true (Obs.enabled ());
      check_bool "sink installed" true (Obs.Trace.current () = Some t));
  check_bool "disabled after" true (not (Obs.enabled ()));
  check_bool "sink removed" true (Obs.Trace.current () = None);
  (* Also restored when the body raises. *)
  (try Obs.Trace.with_sink t (fun () -> failwith "x") with Failure _ -> ());
  check_bool "disabled after exception" true (not (Obs.enabled ()))

(* {1 Domain safety} *)

let test_metrics_two_domain_stress () =
  Obs.Metrics.reset ();
  Obs.with_enabled @@ fun () ->
  let worker () =
    for _ = 1 to 10_000 do
      Obs.Metrics.incr "stress.counter";
      Obs.Metrics.observe "stress.histo" 8
    done;
    Obs.Metrics.snapshot ()
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  (* Each worker owns a private DLS registry, so both see exactly their
     own 10k increments — no lost updates, no cross-talk. *)
  check_int "worker 1 exact" 10_000 (List.assoc "stress.counter" s1.Obs.Metrics.counters);
  check_int "worker 2 exact" 10_000 (List.assoc "stress.counter" s2.Obs.Metrics.counters);
  check_int "parent unaffected" 0 (Obs.Metrics.counter_value "stress.counter");
  Obs.Metrics.absorb s1;
  Obs.Metrics.absorb s2;
  check_int "absorbed total" 20_000 (Obs.Metrics.counter_value "stress.counter");
  let merged = Obs.Metrics.snapshot () in
  check_int "histogram bucket total" 20_000
    (Array.fold_left ( + ) 0 (List.assoc "stress.histo" merged.Obs.Metrics.histograms))

let test_trace_two_domain_stress () =
  let t = Obs.Trace.create ~capacity:16_384 () in
  Obs.Trace.with_sink t (fun () ->
      let worker () =
        for _ = 1 to 1_000 do
          let s = Obs.Span.enter "worker" in
          Obs.Span.exit s
        done
      in
      let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
      Domain.join d1;
      Domain.join d2);
  check_int "all events recorded" 4_000 (Obs.Trace.length t);
  check_int "nothing dropped" 0 (Obs.Trace.dropped t)

let test_autotune_traced () =
  let gemm = Tir.Kernels.find "gemm" in
  let m = Gpusim.Machine.gh200 in
  let baseline, _ =
    Tir.Autotune.best m ~mode:Tir.Engine.Linear ~build:gemm.Tir.Kernels.build ~size:512
  in
  Obs.Metrics.reset ();
  (* Both plan-cache levels are flushed so the worker domains' planners
     genuinely run: the baseline call above warmed the process-wide L2,
     which would otherwise serve every worker lookup metric-free. *)
  Codegen.Plan_cache.clear ();
  Codegen.Shared_cache.clear ();
  Codegen.Shared_cache.reset_stats ();
  let t = Obs.Trace.create () in
  let cfg, _ =
    Obs.Trace.with_sink t (fun () ->
        Tir.Autotune.best ~domains:2 m ~mode:Tir.Engine.Linear
          ~build:gemm.Tir.Kernels.build ~size:512)
  in
  check_int "same winner with 2 domains and tracing" baseline.Tir.Autotune.num_warps
    cfg.Tir.Autotune.num_warps;
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events t) in
  check_bool "best span present" true (List.mem "autotune/best" names);
  check_int "one candidate span pair per config"
    (2 * List.length Tir.Autotune.default_configs)
    (List.length (List.filter (( = ) "autotune/candidate") names));
  (* Worker-domain planner metrics were absorbed into this domain. *)
  check_bool "planner counters absorbed from workers" true
    (List.exists
       (fun (k, v) ->
         String.length k >= 19 && String.sub k 0 19 = "codegen.conversion." && v > 0)
       (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

let () =
  Alcotest.run "obs"
    (Shuffle_support.maybe_shuffle
       [
         ( "properties",
           List.map QCheck_alcotest.to_alcotest
             [ qcheck_roundtrip; qcheck_merge_commutative; qcheck_merge_associative ] );
         ( "units",
           [
             Alcotest.test_case "disabled layer is inert" `Quick test_disabled_is_inert;
             Alcotest.test_case "fixed clock" `Quick test_fixed_clock;
             Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
             Alcotest.test_case "span error attribute" `Quick test_span_error_attr;
             Alcotest.test_case "with_sink restores state" `Quick test_with_sink_restores;
           ] );
         ( "domains",
           [
             Alcotest.test_case "metrics registry, 2-domain stress" `Quick
               test_metrics_two_domain_stress;
             Alcotest.test_case "trace ring, 2-domain stress" `Quick
               test_trace_two_domain_stress;
             Alcotest.test_case "autotune traced across domains" `Quick test_autotune_traced;
           ] );
       ])
