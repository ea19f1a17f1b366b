(* The process-wide sharded plan cache (Codegen.Shared_cache) under
   concurrency: hammer it from 2-8 domains with overlapping keysets and
   check that (a) every plan handed back is structurally identical to
   what a fresh single-domain planner produces, (b) the hit/miss/insert
   counters stay consistent with the traffic, and (c) stripe statistics
   merge like Obs.Metrics snapshots — commutatively and associatively
   with a zero identity. *)

open Linear_layout

let m = Gpusim.Machine.gh200
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Structurally deduped so "distinct keys" below is exactly the pair
   count: two parameter combinations can build the same layout. *)
let pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (a, b) ->
      let k = Layout.to_string a ^ "|" ^ Layout.to_string b in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (Plan_support.cta_pairs ())

(* Overlapping slice for domain [d]: drop every third key, phase-shifted
   by the domain index, so every pair of domains shares ~half its keys. *)
let slice d = List.filteri (fun i _ -> (i + d) mod 3 <> 0) pairs

let fresh_start () =
  Codegen.Plan_cache.clear ();
  Codegen.Shared_cache.clear ();
  Codegen.Shared_cache.reset_stats ()

let distinct_keys slices =
  List.sort_uniq compare (List.concat_map (List.map (fun (a, b) -> (Layout.to_string a, Layout.to_string b))) slices)

let hammer domains =
  fresh_start ();
  let slices = List.init domains slice in
  let handles =
    List.map
      (fun sl ->
        Domain.spawn (fun () ->
            List.map
              (fun (src, dst) ->
                (* The repeat exercises the worker's L1 without touching
                   the shared stripes a second time. *)
                let p1 = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
                let p2 = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
                (src, dst, p1, p2))
              sl))
      slices
  in
  let results = List.map Domain.join handles in
  (slices, results)

let test_plans_match_fresh_planning domains () =
  let _, results = hammer domains in
  List.iter
    (List.iter (fun (src, dst, p1, p2) ->
         let fresh = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
         check_bool "cached plan = fresh single-domain plan" true
           (Plan_support.plan_equal p1 fresh);
         check_bool "repeat lookup returns the same plan" true (Plan_support.plan_equal p1 p2)))
    results

let test_counters_consistent domains () =
  let slices, _ = hammer domains in
  let s = Codegen.Shared_cache.stats () in
  let distinct = List.length (distinct_keys slices) in
  let probes = List.fold_left (fun acc sl -> acc + List.length sl) 0 slices in
  (* Each domain's L1 dedups its own repeats, so the shared cache sees
     exactly one probe per (domain, key). *)
  check_int "L2 probes = sum of per-domain keysets" probes (s.Codegen.Shared_cache.hits + s.Codegen.Shared_cache.misses);
  (* First writer wins: exactly one insert per distinct key, however
     many domains raced on it. *)
  check_int "one insert per distinct key" distinct s.Codegen.Shared_cache.inserts;
  check_int "cache holds the distinct keys" distinct (Codegen.Shared_cache.length ());
  check_bool "at least one miss per distinct key" true (s.Codegen.Shared_cache.misses >= distinct);
  check_bool "hits account for the overlap" true
    (s.Codegen.Shared_cache.hits <= probes - distinct)

let test_l1_falls_through_to_l2 () =
  fresh_start ();
  let src, dst = List.nth pairs 1 in
  let p1 = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
  let s1 = Codegen.Shared_cache.stats () in
  check_int "cold lookup misses the L2 (planner ran)" 1 s1.Codegen.Shared_cache.misses;
  check_int "cold lookup published the plan" 1 s1.Codegen.Shared_cache.inserts;
  (* Clearing the L1 must not force a re-plan: the next lookup is an L2
     hit, i.e. a simulated new domain reuses the process's work. *)
  Codegen.Plan_cache.clear ();
  let p2 = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
  let s2 = Codegen.Shared_cache.stats () in
  check_int "no second planner invocation" 1 s2.Codegen.Shared_cache.misses;
  check_int "L1 refill served from the L2" 1 s2.Codegen.Shared_cache.hits;
  check_bool "same plan through both paths" true (Plan_support.plan_equal p1 p2);
  (* An L1 hit leaves the L2 counters alone entirely. *)
  let (_ : Codegen.Conversion.plan) = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
  let s3 = Codegen.Shared_cache.stats () in
  check_int "L1 hit does not probe the L2" s2.Codegen.Shared_cache.hits s3.Codegen.Shared_cache.hits

let test_both_kinds_cached () =
  fresh_start ();
  let src, dst = List.hd pairs in
  let p = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
  let st = Codegen.Plan_cache.staging m ~src ~dst ~byte_width:4 in
  Codegen.Plan_cache.clear ();
  let misses_before = (Codegen.Shared_cache.stats ()).Codegen.Shared_cache.misses in
  let p2 = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width:4 in
  let st2 = Codegen.Plan_cache.staging m ~src ~dst ~byte_width:4 in
  let misses_after = (Codegen.Shared_cache.stats ()).Codegen.Shared_cache.misses in
  check_int "no re-planning for either plan kind" misses_before misses_after;
  check_bool "conversion survives the L2" true (Plan_support.plan_equal p p2);
  check_bool "staging survives the L2" true (Plan_support.staging_equal st st2);
  check_int "one entry per kind" 2 (Codegen.Shared_cache.length ())

(* {1 Stripe statistics merge like Obs.Metrics} *)

let arb_stats =
  QCheck.map
    (fun (h, m, i) -> { Codegen.Shared_cache.hits = h; misses = m; inserts = i })
    QCheck.(triple small_nat small_nat small_nat)

let stats_eq (a : Codegen.Shared_cache.stats) (b : Codegen.Shared_cache.stats) =
  a.Codegen.Shared_cache.hits = b.Codegen.Shared_cache.hits
  && a.Codegen.Shared_cache.misses = b.Codegen.Shared_cache.misses
  && a.Codegen.Shared_cache.inserts = b.Codegen.Shared_cache.inserts

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge_stats is commutative" ~count:200 (QCheck.pair arb_stats arb_stats)
    (fun (a, b) ->
      stats_eq (Codegen.Shared_cache.merge_stats a b) (Codegen.Shared_cache.merge_stats b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge_stats is associative" ~count:200
    (QCheck.triple arb_stats arb_stats arb_stats)
    (fun (a, b, c) ->
      stats_eq
        (Codegen.Shared_cache.merge_stats (Codegen.Shared_cache.merge_stats a b) c)
        (Codegen.Shared_cache.merge_stats a (Codegen.Shared_cache.merge_stats b c)))

let prop_merge_zero_identity =
  QCheck.Test.make ~name:"zero_stats is the identity" ~count:200 arb_stats (fun a ->
      stats_eq (Codegen.Shared_cache.merge_stats a Codegen.Shared_cache.zero_stats) a
      && stats_eq (Codegen.Shared_cache.merge_stats Codegen.Shared_cache.zero_stats a) a)

let test_stats_is_stripe_fold () =
  fresh_start ();
  let _ = hammer 3 in
  let folded =
    Array.fold_left Codegen.Shared_cache.merge_stats Codegen.Shared_cache.zero_stats
      (Codegen.Shared_cache.stripe_stats ())
  in
  check_bool "stats () = fold of stripe_stats ()" true
    (stats_eq folded (Codegen.Shared_cache.stats ()))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "shared_cache"
    (Shuffle_support.maybe_shuffle
       [
         ( "concurrency",
           List.concat_map
             (fun d ->
               [
                 Alcotest.test_case
                   (Printf.sprintf "plans match fresh planning (%d domains)" d)
                   `Quick
                   (test_plans_match_fresh_planning d);
                 Alcotest.test_case
                   (Printf.sprintf "counters consistent (%d domains)" d)
                   `Quick (test_counters_consistent d);
               ])
             [ 2; 4; 8 ] );
         ( "two-level",
           [
             Alcotest.test_case "L1 falls through to L2, planner runs once" `Quick
               test_l1_falls_through_to_l2;
             Alcotest.test_case "both plan kinds round through the L2" `Quick
               test_both_kinds_cached;
             Alcotest.test_case "stats () folds the stripes" `Quick test_stats_is_stripe_fold;
           ] );
         ( "stats-merge",
           q [ prop_merge_commutative; prop_merge_associative; prop_merge_zero_identity ] );
       ])
