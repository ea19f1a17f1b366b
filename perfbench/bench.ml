(* The benchmark's main program: one workload, one seed, one process.

   bench.exe --workload W --seed N --seconds S --trace 0|1

   Untraced runs print the end-to-end metrics; traced runs print the
   per-layer metrics.  The last stdout line is the JSON result; the
   human-readable report goes to stderr, and a run record (plus, for
   traced runs, a Chrome trace of the spans) to [--out]. *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10.0
let trace = ref 0
let out_dir = ref "_perfbench"
let commit = ref "unknown"
let source_digest = ref "unknown"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
    ("--seed", Arg.Set_int seed, "N request-order seed");
    ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--out", Arg.Set_string out_dir, "DIR run records and traces (default _perfbench)");
    ("--commit", Arg.Set_string commit, "ID commit of the measured source, for the run record");
    ("--source-digest", Arg.Set_string source_digest, "HEX digest of the measured source");
  ]

(* {1 Per-cycle counters} *)

type counters = {
  planner : int;  (** [Shared_cache] misses: planner invocations, process-wide *)
  memo_hits : int;
  memo_misses : int;
  l1_hits : int;
  l1_misses : int;
  shared_hits : int;
  shared_inserts : int;
  explored : int;
  pruned : int;
  minor_words : float;
  major : int;
}

let counters () =
  let s = Codegen.Shared_cache.stats () in
  {
    planner = s.Codegen.Shared_cache.misses;
    memo_hits = Linear_layout.Layout.Memo.hits ();
    memo_misses = Linear_layout.Layout.Memo.misses ();
    l1_hits = Codegen.Plan_cache.hits ();
    l1_misses = Codegen.Plan_cache.misses ();
    shared_hits = s.Codegen.Shared_cache.hits;
    shared_inserts = s.Codegen.Shared_cache.inserts;
    explored = !Workloads.explored;
    pruned = !Workloads.pruned;
    minor_words = Gc.minor_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
  }

let delta a b =
  {
    planner = b.planner - a.planner;
    memo_hits = b.memo_hits - a.memo_hits;
    memo_misses = b.memo_misses - a.memo_misses;
    l1_hits = b.l1_hits - a.l1_hits;
    l1_misses = b.l1_misses - a.l1_misses;
    shared_hits = b.shared_hits - a.shared_hits;
    shared_inserts = b.shared_inserts - a.shared_inserts;
    explored = b.explored - a.explored;
    pruned = b.pruned - a.pruned;
    minor_words = b.minor_words -. a.minor_words;
    major = b.major - a.major;
  }

type cycle = {
  c : counters;
  gen_cost : float;
  raw : float array;  (** seconds per request, in the cycle's order *)
  lat : float array;  (** the same, divided by the cycle's speed factor *)
  traced : bool;
  speed : float;  (** mean of the speed factors sampled before and after the cycle *)
}

(* The counts that must repeat exactly from cycle to cycle of one seed. *)
let exact_of cy =
  [
    ("planner.invocations", string_of_int cy.c.planner);
    ("memo.hits", string_of_int cy.c.memo_hits);
    ("memo.misses", string_of_int cy.c.memo_misses);
    ("search.explored", string_of_int cy.c.explored);
    ("gen_cost_geomean", Printf.sprintf "%.17g" cy.gen_cost);
  ]

(* {1 The timed loop} *)

(* [count] whole cycles, with a speed-factor sample between any two.
   With [alternate], as many traced cycles are interleaved, so traced
   and untraced latencies share the machine's state as evenly as
   possible. *)
let run_loop ?(alternate = false) (w : Workloads.t) o ~count =
  Gc.compact ();
  let total = if alternate then 2 * count else count in
  let rec go acc k before =
    if k = total then List.rev acc
    else begin
      let traced = alternate && k mod 2 = 1 in
      let lat = Util.Buf.create () in
      Hashtbl.reset Workloads.cycle_costs;
      let c0 = counters () in
      w.Workloads.cycle ~traced ~lat o;
      let c = delta c0 (counters ()) in
      let after = Util.speed_factor () in
      let speed = (before +. after) /. 2.0 in
      let gen_cost = Util.geomean (Hashtbl.fold (fun _ v acc -> v :: acc) Workloads.cycle_costs []) in
      let raw = Util.Buf.to_array lat in
      let cy = { c; gen_cost; raw; lat = Array.map (fun x -> x /. speed) raw; traced; speed } in
      go (cy :: acc) (k + 1) after
    end
  in
  go [] 0 (Util.speed_factor ())

let plain cycles = List.filter (fun cy -> not cy.traced) cycles

(* Every cycle sends the same list in the same order, so position [j]
   is the same request in each: its latency is the median over the
   cycles, which keeps a one-off stall from moving any percentile. *)
let per_request ?(field = fun cy -> cy.lat) cycles =
  let cs = Array.of_list cycles in
  Array.init (Array.length (field cs.(0))) (fun j -> Util.median (Array.map (fun cy -> (field cy).(j)) cs))

(* Requests per second of the median cycle (request time only). *)
let throughput ?(field = fun cy -> cy.lat) cycles =
  let sum a = Array.fold_left ( +. ) 0.0 a in
  float_of_int (Array.length (List.hd cycles).lat) /. Util.median_list (List.map (fun cy -> sum (field cy)) cycles)

let unscaled cy = cy.raw

let check_exact name pairs =
  List.iter
    (fun (metric, a, b) ->
      if a <> b then begin
        Util.log "exact-count check failed on %s: %s differs between two %s (%s vs %s)" !workload metric
          name a b;
        exit 3
      end)
    pairs

let check_cycles cycles =
  match cycles with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun cy ->
          check_exact "cycles"
            (List.map2 (fun (k, a) (_, b) -> (k, a, b)) (exact_of first) (exact_of cy)))
        rest

(* {1 Output} *)

let ms x = x *. 1e3

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (m : Layers.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Layers.name (Util.json_num m.Layers.value)
              m.Layers.unit_)
          metrics))

let pct_line label a p =
  let s = Util.sorted a in
  let n = Array.length s in
  Printf.sprintf "%s p%.0f = %.4f ms (n=%d, %d beyond)" label (p *. 100.) (ms (Util.percentile_sorted s p)) n
    (Util.beyond n p)

let last l = List.nth l (List.length l - 1)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  Util.mkdir_p !out_dir;
  let traced = !trace = 1 in
  let o = Oracle.create () in
  Util.log "perfbench %s seed=%d seconds=%g trace=%d  nproc=%d ocaml=%s commit=%s source=%s" !workload !seed
    !seconds !trace (Domain.recommended_domain_count ()) Sys.ocaml_version !commit !source_digest;
  let w = Workloads.make !workload ~seed:!seed ~out_dir:!out_dir in
  (match Reqs.self_test ~seed:!seed w.Workloads.pool with
  | Ok () when Reqs.serialize (Reqs.order ~seed:!seed w.Workloads.pool) = Reqs.serialize w.Workloads.requests -> ()
  | Ok () -> Util.log "seed self-test failed: the run's request list is not the seeded order"; exit 3
  | Error e ->
      Util.log "seed self-test failed: %s" e;
      exit 3);
  let setups = Array.of_list (List.map fst w.Workloads.setup_s) in
  let setup_raw = Util.median setups in
  let setup_scaled = Util.median_list (List.map (fun (dt, speed) -> dt /. speed) w.Workloads.setup_s) in
  Util.log "set-up: %d repetitions, min %.6f s, median %.6f s, max %.6f s; speed factors %s" (Array.length setups)
    (Util.percentile setups 0.0) setup_raw (Util.percentile setups 1.0)
    (String.concat " " (List.sort_uniq compare (List.map (fun (_, s) -> Printf.sprintf "%.3f" s) w.Workloads.setup_s)));
  let record = Buffer.create 1024 in
  let rec_field k v = Buffer.add_string record (Printf.sprintf "  \"%s\": %s,\n" k v) in
  let str s = "\"" ^ Util.json_escape s ^ "\"" in
  rec_field "workload" (str !workload);
  rec_field "seed" (string_of_int !seed);
  rec_field "trace" (string_of_int !trace);
  rec_field "nproc" (string_of_int (Domain.recommended_domain_count ()));
  rec_field "ocaml" (str Sys.ocaml_version);
  rec_field "commit" (str !commit);
  rec_field "source_digest" (str !source_digest);
  rec_field "loop" (str "closed, 1 client");
  let n = Array.length w.Workloads.requests in
  (* A number of whole cycles fixed by [--seconds] alone, not by how fast
     they run: every run of a workload times the same requests, on either
     commit. *)
  let cycles = max 3 (int_of_float (Float.ceil (!seconds /. w.Workloads.cycle_budget_s))) in
  rec_field "requests_per_cycle" (string_of_int n);
  let metrics =
    if not traced then begin
      let l = run_loop w o ~count:cycles in
      check_cycles l;
      let req = per_request l and raw = per_request ~field:unscaled l in
      let s = Util.sorted req and sr = Util.sorted raw in
      let p q = ms (Util.percentile_sorted s q) in
      let gen = (List.hd l).gen_cost in
      Util.log "loop: %d cycles of %d requests; request seconds / speed factor per cycle: %s" cycles n
        (String.concat " "
           (List.map (fun cy -> Printf.sprintf "%.3f/%.3f" (Array.fold_left ( +. ) 0.0 cy.raw) cy.speed) l));
      Util.log "latency per request = its median over the %d cycles, each divided by its cycle's speed factor:" cycles;
      List.iter (fun q -> Util.log "  %s" (pct_line "all" req q)) [ 0.5; 0.9; 0.99 ];
      List.iter (fun q -> Util.log "  %s" (pct_line "unscaled" raw q)) [ 0.5; 0.9; 0.99 ];
      let kinds = List.sort_uniq compare (Array.to_list (Array.map Reqs.verb w.Workloads.requests)) in
      if List.length kinds > 1 then
        List.iter
          (fun k ->
            let a =
              Array.of_list
                (List.filteri (fun j _ -> Reqs.verb w.Workloads.requests.(j) = k) (Array.to_list req))
            in
            List.iter (fun q -> Util.log "  %s" (pct_line k a q)) [ 0.5; 0.9; 0.99 ])
          kinds;
      rec_field "samples" (Printf.sprintf "{\"requests\": %d, \"cycles\": %d}" n cycles);
      rec_field "unscaled"
        (Printf.sprintf
           "{\"setup_s\": %s, \"throughput_rps\": %s, \"latency_p50_ms\": %s, \"latency_p90_ms\": %s, \"latency_p99_ms\": %s}"
           (Util.json_num setup_raw)
           (Util.json_num (throughput ~field:unscaled l))
           (Util.json_num (ms (Util.percentile_sorted sr 0.5)))
           (Util.json_num (ms (Util.percentile_sorted sr 0.9)))
           (Util.json_num (ms (Util.percentile_sorted sr 0.99))));
      [
        Layers.mk "setup_s" "s" setup_scaled;
        Layers.mk "throughput_rps" "1/s" (throughput l);
        Layers.mk "latency_p50_ms" "ms" (p 0.5);
        Layers.mk "latency_p90_ms" "ms" (p 0.9);
        Layers.mk "latency_p99_ms" "ms" (p 0.99);
        Layers.mk "gen_cost_geomean" "cost" gen;
        Layers.mk "peak_heap_mb" "MB" (Util.peak_heap_mb ());
      ]
    end
    else begin
      (* Untraced and traced cycles alternate: the untraced ones give the
         counters and the base of the tracing overhead. *)
      (* Half as many of each kind, to leave time for the layer probe. *)
      let cycles = max 3 ((cycles + 1) / 2) in
      let l = run_loop ~alternate:true w o ~count:cycles in
      check_cycles l;
      let untraced = plain l and traced_cycles = List.filter (fun cy -> cy.traced) l in
      let p50 cs = Util.median (per_request cs) in
      let overhead = 100.0 *. ((p50 traced_cycles /. p50 untraced) -. 1.0) in
      (* Request self time by layer. *)
      let selfs = Spans.self_by_name () in
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 selfs in
      Util.log "request self time by layer (%d traced cycles of %d requests):" cycles n;
      List.iter (fun (k, v) -> Util.log "  %-28s %9.4f s  %5.1f%%" k v (100. *. v /. total)) selfs;
      let share names =
        List.fold_left (fun acc (k, v) -> if List.exists (fun p -> String.starts_with ~prefix:p k) names then acc +. v else acc) 0.0 selfs
        /. total
      in
      let cy = last untraced in
      let nc = Array.length cy.lat in
      let verdict b = if b then "holds" else "DOES NOT HOLD" in
      (match !workload with
      | "warm-compile" ->
          Util.log "check: planner.invocations = 0 (%d) and passes > 50%% of request self time (%.1f%%): %s"
            cy.c.planner (100. *. share [ "passes." ]) (verdict (cy.c.planner = 0 && share [ "passes." ] > 0.5))
      | "serve-mixed" ->
          Util.log "check: planner.invocations = 0 in the timed loop (%d): %s" cy.c.planner (verdict (cy.c.planner = 0))
      | _ ->
          (* Static re-pricing runs inside the search call, under its span. *)
          let s = share [ "search" ] in
          Util.log "check: search with its static pricing > 50%% of request self time (%.1f%%): %s" (100. *. s)
            (verdict (s > 0.5)));
      let trace_file = Filename.concat !out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
      Util.write_file trace_file (Spans.chrome_json ());
      Util.log "spans: %d, written to %s" (List.length (Spans.all ())) trace_file;
      Spans.reset ();
      let probe, replay_counts, nkeys = Layers.run ~out_dir:!out_dir w.Workloads.triples in
      check_exact "probe repetitions" probe.Layers.exact;
      Util.log "layer probe: %d distinct requests, %d conversion keys" (List.length w.Workloads.triples) nkeys;
      let per n x = float_of_int x /. float_of_int (max 1 n) in
      let nt = List.length w.Workloads.triples in
      (* The server's engine runs in its worker domain: its memo and L1
         traffic are read from the in-process replay instead. *)
      let memo_h, memo_m, l1_h, l1_m =
        if !workload = "serve-mixed" then
          ( per nt replay_counts.Layers.memo_hits,
            per nt replay_counts.Layers.memo_misses,
            per nt replay_counts.Layers.l1_hits,
            per nt replay_counts.Layers.l1_misses )
        else (per nc cy.c.memo_hits, per nc cy.c.memo_misses, per nc cy.c.l1_hits, per nc cy.c.l1_misses)
      in
      let loop_metrics =
        [
          Layers.mk "planner.invocations" "count" (float_of_int cy.c.planner);
          Layers.mk "memo.hits" "count" memo_h;
          Layers.mk "memo.misses" "count" memo_m;
          Layers.mk "plan_cache.l1_hits" "count" l1_h;
          Layers.mk "plan_cache.l1_misses" "count" l1_m;
          Layers.mk "shared_cache.hits" "count" (per nc cy.c.shared_hits);
          Layers.mk "shared_cache.inserts" "count" (per nc cy.c.shared_inserts);
          Layers.mk "search.explored" "count" (per nc cy.c.explored);
          Layers.mk "search.pruned" "count" (per nc cy.c.pruned);
          Layers.mk "gc.minor_words" "words" (cy.c.minor_words /. float_of_int (max 1 nc));
          Layers.mk "gc.major_collections" "count" (float_of_int cy.c.major);
          Layers.mk "obs.trace_overhead_pct" "%" overhead;
        ]
      in
      rec_field "samples" (Printf.sprintf "{\"requests\": %d, \"cycles\": %d, \"traced_cycles\": %d}" n cycles cycles);
      loop_metrics @ probe.Layers.metrics
    end
  in
  (* The oracle runs after timing, once per distinct request. *)
  let (), oracle_s = Util.time (fun () -> w.Workloads.verify o) in
  w.Workloads.finish ();
  let failed = Oracle.failed_count o in
  let attempted = max 1 o.Oracle.checked in
  Util.log "oracle: %d distinct requests checked in %.2f s, %d failed (failed_frac %.4f)" o.Oracle.checked
    oracle_s failed
    (float_of_int failed /. float_of_int attempted);
  rec_field "failed_frac" (Printf.sprintf "%.6f" (float_of_int failed /. float_of_int attempted));
  Buffer.add_string record
    (Printf.sprintf "  \"metrics\": {%s}\n"
       (String.concat ", "
          (List.map (fun (m : Layers.metric) -> Printf.sprintf "\"%s\": %s" m.Layers.name (Util.json_num m.Layers.value)) metrics)));
  Util.write_file
    (Filename.concat !out_dir (Printf.sprintf "run-%s-seed%d-trace%d.json" !workload !seed !trace))
    ("{\n" ^ Buffer.contents record ^ "}\n");
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
