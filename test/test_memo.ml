(* The memoized/hash-consed layout operations (Layout.Memo) and the
   plan cache (Codegen.Plan_cache) must be observationally identical to
   the plain implementations — and must actually get hit. *)

open Linear_layout

let machine = Gpusim.Machine.gh200

(* Random small invertible layouts over a fixed labeled space (same
   construction as test_laws). *)
let gen_permutation_layout ~ins ~outs =
  QCheck.Gen.(
    let total = List.fold_left (fun a (_, b) -> a + b) 0 ins in
    let* perm =
      let* swaps = list_repeat total (int_bound (total - 1)) in
      let a = Array.init total Fun.id in
      List.iteri
        (fun i j ->
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t)
        swaps;
      return a
    in
    let cols = Array.map (fun p -> 1 lsl p) perm in
    return (Layout.of_matrix ~ins ~outs (F2.Bitmatrix.make ~rows:total cols)))

let space = [ (Dims.register, 2); (Dims.lane, 3); (Dims.warp, 1) ]
let out_space = [ (Dims.dim 0, 3); (Dims.dim 1, 3) ]

let arb_perm =
  QCheck.make (gen_permutation_layout ~ins:space ~outs:out_space) ~print:Layout.to_string

let arb_endo =
  QCheck.make (gen_permutation_layout ~ins:space ~outs:space) ~print:Layout.to_string

(* {1 Memo agreement} *)

let prop_memo_compose =
  QCheck.Test.make ~name:"Memo.compose = compose" ~count:200
    (QCheck.pair arb_perm arb_endo)
    (fun (g, f) -> Layout.equal (Layout.Memo.compose g f) (Layout.compose g f))

let prop_memo_invert =
  QCheck.Test.make ~name:"Memo.invert = invert" ~count:200 arb_perm (fun l ->
      Layout.equal (Layout.Memo.invert l) (Layout.invert l))

let prop_memo_free_masks =
  QCheck.Test.make ~name:"Memo.free_variable_masks = free_variable_masks" ~count:200
    arb_perm (fun l ->
      let l = Sliced.make l ~dim:1 in
      Layout.Memo.free_variable_masks l = Layout.free_variable_masks l)

let prop_intern_hash_consing =
  QCheck.Test.make ~name:"intern is idempotent and canonicalizing" ~count:200 arb_perm
    (fun l ->
      let a = Layout.Memo.intern l in
      (* A structurally equal but freshly built layout interns to the
         same physical representative. *)
      let b = Layout.Memo.intern (Layout.invert (Layout.invert l)) in
      a == b && Layout.Memo.intern a == a && Layout.Memo.hash a = Layout.Memo.hash l)

(* {1 Plan cache} *)

let bench_src () = Blocked.default ~elems_per_thread:8 ~warp_size:32 ~num_warps:4 [| 128; 64 |]
let bench_dst () = Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 4; 1 |] ~shape:[| 128; 64 |] ()

let test_plan_cache_agrees () =
  let src = bench_src () and dst = bench_dst () in
  let direct = Codegen.Conversion.plan machine ~src ~dst ~byte_width:2 in
  Codegen.Plan_cache.clear ();
  Codegen.Plan_cache.reset_stats ();
  let cached = Codegen.Plan_cache.conversion machine ~src ~dst ~byte_width:2 in
  let again = Codegen.Plan_cache.conversion machine ~src ~dst ~byte_width:2 in
  Alcotest.(check string)
    "same mechanism"
    (Codegen.Conversion.mechanism_name direct.Codegen.Conversion.mechanism)
    (Codegen.Conversion.mechanism_name cached.Codegen.Conversion.mechanism);
  Alcotest.(check (float 0.0))
    "same cost estimate"
    (Gpusim.Cost.estimate machine (Codegen.Conversion.cost machine direct))
    (Gpusim.Cost.estimate machine (Codegen.Conversion.cost machine cached));
  Alcotest.(check bool) "second lookup is a hit" true (Codegen.Plan_cache.hits () >= 1);
  Alcotest.(check bool) "first lookup was a miss" true (Codegen.Plan_cache.misses () >= 1);
  (* The cached plan is the very object computed on the miss. *)
  Alcotest.(check bool) "physically shared" true (cached == again)

(* {1 Engine-level cache traffic} *)

let test_engine_memo_hits () =
  Layout.Memo.clear ();
  Layout.Memo.reset_stats ();
  Codegen.Plan_cache.clear ();
  Codegen.Plan_cache.reset_stats ();
  let gemm = Tir.Kernels.find "gemm" in
  ignore (Tir.Engine.run machine ~mode:Tir.Engine.Linear (gemm.Tir.Kernels.build ~size:256));
  Alcotest.(check bool) "memo misses nonzero" true (Layout.Memo.misses () > 0);
  Alcotest.(check bool) "memo hits nonzero" true (Layout.Memo.hits () > 0);
  Alcotest.(check bool) "plan cache populated" true (Codegen.Plan_cache.misses () > 0);
  (* A second identical run plans nothing afresh. *)
  let misses_before = Codegen.Plan_cache.misses () in
  ignore (Tir.Engine.run machine ~mode:Tir.Engine.Linear (gemm.Tir.Kernels.build ~size:256));
  Alcotest.(check int) "warm run adds no plan misses" misses_before
    (Codegen.Plan_cache.misses ());
  Alcotest.(check bool) "warm run hits the plan cache" true (Codegen.Plan_cache.hits () > 0)

(* {1 Memoized target layouts}

   [Pass_util.default_blocked], [anchor_candidates] and [dot_layouts]
   are built once per key in [Layout.Memo] tables: a warm lookup must
   return what a fresh construction after [Layout.Memo.clear] returns,
   on every configuration the constructor golden visits. *)

let same_layouts what a b =
  Alcotest.(check int) (what ^ ": count") (List.length a) (List.length b);
  List.iter2
    (fun x y -> Alcotest.(check bool) (what ^ ": Layout.equal") true (Layout.equal x y))
    a b

(* Call [f] twice (the second call is warm), then clear the tables and
   call it once more; the warm and the fresh results must agree. *)
let warm_vs_fresh what f =
  ignore (f ());
  let warm = f () in
  Layout.Memo.clear ();
  let fresh = f () in
  let fits_w, ls_w, n_w = warm and fits_f, ls_f, n_f = fresh in
  Alcotest.(check bool) (what ^ ": fits") fits_w fits_f;
  Alcotest.(check int) (what ^ ": pruned") n_w n_f;
  same_layouts what ls_w ls_f

let test_targets_warm_equal_fresh () =
  let module P = Tir.Pass_util in
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          List.iter
            (fun num_warps ->
              List.iter
                (fun size ->
                  let prog = k.Tir.Kernels.build ~size in
                  let dtype_of id = (Tir.Program.instr prog id).Tir.Program.dtype in
                  let shape_of id = (Tir.Program.instr prog id).Tir.Program.shape in
                  Array.iter
                    (fun (ins : Tir.Program.instr) ->
                      let shape = ins.Tir.Program.shape and dtype = ins.Tir.Program.dtype in
                      let what =
                        Printf.sprintf "%s %s w%d %s" machine.Gpusim.Machine.name
                          k.Tir.Kernels.name num_warps
                          (String.concat "x" (Array.to_list (Array.map string_of_int shape)))
                      in
                      warm_vs_fresh (what ^ " default_blocked") (fun () ->
                          (true, [ P.default_blocked machine ~num_warps ~shape ~dtype ], 0));
                      warm_vs_fresh (what ^ " anchor_candidates") (fun () ->
                          let cands, pruned = P.anchor_candidates machine ~num_warps ~shape ~dtype in
                          (true, cands, pruned));
                      match ins.Tir.Program.node with
                      | Tir.Program.Dot { a; b } ->
                          let m = (shape_of a).(0) and k = (shape_of a).(1) in
                          let n = (shape_of b).(1) in
                          warm_vs_fresh (what ^ " dot_layouts") (fun () ->
                              let fits, out, la, lb =
                                P.dot_layouts machine ~num_warps ~m ~n ~k ~a_dtype:(dtype_of a)
                                  ~b_dtype:(dtype_of b)
                              in
                              (fits, [ out; la; lb ], 0))
                      | _ -> ())
                    (Tir.Program.instrs prog))
                k.Tir.Kernels.sizes)
            [ 1; 2; 4; 8 ])
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras

(* The tables key on a copy of the shape: mutating the caller's array
   after a lookup leaves the stored entry alone. *)
let test_targets_own_their_shape () =
  let module P = Tir.Pass_util in
  let dtype = Tensor_lib.Dtype.F16 and num_warps = 4 in
  Layout.Memo.clear ();
  let shape = [| 64; 128 |] in
  let l = P.default_blocked machine ~num_warps ~shape ~dtype in
  let cands, _ = P.anchor_candidates machine ~num_warps ~shape ~dtype in
  shape.(0) <- 256;
  ignore (P.default_blocked machine ~num_warps ~shape ~dtype);
  ignore (P.anchor_candidates machine ~num_warps ~shape ~dtype);
  Layout.Memo.reset_stats ();
  let again = P.default_blocked machine ~num_warps ~shape:[| 64; 128 |] ~dtype in
  let cands_again, _ = P.anchor_candidates machine ~num_warps ~shape:[| 64; 128 |] ~dtype in
  Alcotest.(check bool) "default_blocked unchanged" true (Layout.equal l again);
  same_layouts "anchor_candidates unchanged" cands cands_again;
  Alcotest.(check int) "the original key still hits" 0 (Layout.Memo.misses ());
  Alcotest.(check bool) "mutated shape gets its own entry" false
    (Layout.equal l (P.default_blocked machine ~num_warps ~shape ~dtype))

(* Lookups count in [Layout.Memo.hits]/[misses], and a lookup right
   after [Layout.Memo.clear] is a miss. *)
let test_targets_counted () =
  let module P = Tir.Pass_util in
  let lookup () =
    ignore
      (P.dot_layouts machine ~num_warps:4 ~m:128 ~n:128 ~k:64 ~a_dtype:Tensor_lib.Dtype.F16
         ~b_dtype:Tensor_lib.Dtype.F16)
  in
  lookup ();
  Layout.Memo.reset_stats ();
  lookup ();
  Alcotest.(check int) "warm lookup is one hit" 1 (Layout.Memo.hits ());
  Alcotest.(check int) "warm lookup misses nothing" 0 (Layout.Memo.misses ());
  Layout.Memo.clear ();
  Layout.Memo.reset_stats ();
  lookup ();
  Alcotest.(check bool) "lookup after clear is a miss" true (Layout.Memo.misses () >= 1)

(* Each domain owns its tables: a search whose branches run on a second
   domain, with cold tables there, decides as the one-domain search. *)
let test_search_domain_invariant () =
  List.iter
    (fun kernel ->
      let k = Tir.Kernels.find kernel in
      let outcome domains =
        Tir.Assign_search.run Gpusim.Machine.mi250 ~mode:Tir.Engine.Linear
          ~params:{ Tir.Assign_search.beam = 2; domains }
          (k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes))
      in
      let o1 = outcome 1 and o2 = outcome 2 in
      Alcotest.(check (list int)) (kernel ^ ": script") o1.Tir.Assign_search.script
        o2.Tir.Assign_search.script;
      Alcotest.(check (float 0.))
        (kernel ^ ": cost") o1.Tir.Assign_search.stats.Tir.Assign_search.best_cost
        o2.Tir.Assign_search.stats.Tir.Assign_search.best_cost)
    [ "gemm"; "attention_bwd"; "swiglu" ]

(* {1 Interned transfers}

   The forward pass's layout transfers go through [Pass_util.transfer]:
   one computation per key and domain, stored interned. *)

let suite_triples () =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun (k : Tir.Kernels.kernel) ->
          List.map (fun size -> (machine, k, size)) k.Tir.Kernels.sizes)
        Tir.Kernels.all)
    Gpusim.Machine.all

(* Every instruction's layout after the anchor and forward passes, which
   make every transfer. *)
let forward_layouts (machine, (k : Tir.Kernels.kernel), size) =
  let prog = k.Tir.Kernels.build ~size in
  let st = Tir.Pass.init machine ~mode:Tir.Engine.Linear prog in
  ignore
    (Tir.Pass_manager.run
       (Tir.Pass_manager.config [ Tir.Passes.anchor; Tir.Passes.forward_propagate ])
       st);
  Array.map (fun (ins : Tir.Program.instr) -> ins.Tir.Program.layout) (Tir.Program.instrs prog)

let triple_name (machine, (k : Tir.Kernels.kernel), size) =
  Printf.sprintf "%s %s %d" machine.Gpusim.Machine.name k.Tir.Kernels.name size

(* With the tables filled by the whole suite, each program's warm
   layouts equal the ones computed afresh after [Layout.Memo.clear]. *)
let test_transfers_warm_equal_fresh () =
  let triples = suite_triples () in
  Layout.Memo.clear ();
  List.iter (fun t -> ignore (forward_layouts t)) triples;
  let warm = List.map forward_layouts triples in
  List.iter2
    (fun t warm ->
      Layout.Memo.clear ();
      let fresh = forward_layouts t in
      Array.iteri
        (fun i w ->
          match (w, fresh.(i)) with
          | Some w, Some f ->
              if not (Layout.equal w f) then
                Alcotest.failf "%s: instruction %d: warm layout differs from fresh"
                  (triple_name t) i
          | None, None -> ()
          | _ -> Alcotest.failf "%s: instruction %d: layout presence differs" (triple_name t) i)
        warm)
    triples warm

(* Ops on one square tensor whose results share a shape and differ only
   in their integer arguments: the keys must tell them apart. *)
let test_transfers_keyed_by_arguments () =
  List.iter
    (fun machine ->
      let p = Tir.Program.create () in
      let x = Tir.Program.load p ~name:"x" ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F32 () in
      let r0 = Tir.Program.reduce p x ~axis:0 and r1 = Tir.Program.reduce p x ~axis:1 in
      let t = Tir.Program.trans p x ~perm:[| 1; 0 |] in
      List.iter (fun i -> ignore (Tir.Program.store p i)) [ r0; r1; t ];
      let st = Tir.Pass.init machine ~mode:Tir.Engine.Linear p in
      ignore
        (Tir.Pass_manager.run
           (Tir.Pass_manager.config [ Tir.Passes.anchor; Tir.Passes.forward_propagate ])
           st);
      let layout i = Option.get (Tir.Program.instr p i).Tir.Program.layout in
      let what = machine.Gpusim.Machine.name in
      Alcotest.(check bool) (what ^ ": reduce axis 0 <> axis 1") false
        (Layout.equal (layout r0) (layout r1));
      Alcotest.(check bool) (what ^ ": trans <> source") false
        (Layout.equal (layout t) (layout x)))
    Gpusim.Machine.all

(* A second [Engine.run] of a program assigns physically the layouts of
   the first. *)
let test_rerun_same_layouts () =
  List.iter
    (fun ((machine, (k : Tir.Kernels.kernel), size) as t) ->
      let prog = k.Tir.Kernels.build ~size in
      let layouts () =
        Array.map (fun (ins : Tir.Program.instr) -> ins.Tir.Program.layout) (Tir.Program.instrs prog)
      in
      ignore (Tir.Engine.run machine ~mode:Tir.Engine.Linear prog);
      let first = layouts () in
      ignore (Tir.Engine.run machine ~mode:Tir.Engine.Linear prog);
      Array.iteri
        (fun i l ->
          match (first.(i), l) with
          | Some a, Some b when a == b -> ()
          | None, None -> ()
          | _ -> Alcotest.failf "%s: instruction %d: not the first run's layout" (triple_name t) i)
        (layouts ()))
    (suite_triples ())

(* Transfer lookups count in [Layout.Memo.hits]/[misses]; the first
   lookup after [Layout.Memo.clear] is a miss. *)
let test_transfer_counted () =
  let src = Layout.Memo.intern (bench_src ()) in
  let calls = ref 0 in
  let lookup () =
    Tir.Pass_util.transfer "reduce" [ src ] ~args:[| 1 |] ~shape:[| 128 |] (fun () ->
        incr calls;
        Tir.Pass_util.rename_dims_above (Sliced.reduction_result src ~dim:1) ~axis:1 ~delta:(-1))
  in
  Layout.Memo.clear ();
  Layout.Memo.reset_stats ();
  let first = lookup () in
  Alcotest.(check int) "cold lookup is one miss" 1 (Layout.Memo.misses ());
  Layout.Memo.reset_stats ();
  let again = lookup () in
  Alcotest.(check int) "warm lookup is one hit" 1 (Layout.Memo.hits ());
  Alcotest.(check int) "warm lookup misses nothing" 0 (Layout.Memo.misses ());
  Alcotest.(check bool) "warm lookup returns the stored layout" true (first == again);
  Alcotest.(check bool) "the stored layout is interned" true (Layout.Memo.intern first == first);
  (* A structurally equal source built afresh finds the same entry. *)
  let fresh_src = Layout.invert (Layout.invert src) in
  Alcotest.(check bool) "equal source, same entry" true
    (Tir.Pass_util.transfer "reduce" [ fresh_src ] ~args:[| 1 |] ~shape:[| 128 |] (fun () ->
         Alcotest.fail "recomputed")
    == first);
  Alcotest.(check bool) "another op misses" false
    (Tir.Pass_util.transfer "split" [ src ] ~args:[| 1 |] ~shape:[| 128 |] (fun () -> src)
    == first);
  Layout.Memo.clear ();
  Layout.Memo.reset_stats ();
  ignore (lookup ());
  Alcotest.(check int) "lookup after clear is a miss" 1 (Layout.Memo.misses ());
  Alcotest.(check int) "computed once per fill" 2 !calls

(* {1 Price once} *)

let same_cost what (a : Gpusim.Cost.t) (b : Gpusim.Cost.t) =
  Alcotest.(check bool) what true (a = b)

(* The price comes from the plan's cache entry; each caller gets its
   own copy, so mutating one leaves the next lookup's price alone. *)
let test_priced_copies () =
  let src = bench_src () and dst = bench_dst () in
  Codegen.Plan_cache.clear ();
  let plan, c = Codegen.Plan_cache.priced machine ~src ~dst ~byte_width:2 in
  let model = Codegen.Conversion.cost machine plan in
  same_cost "price is Conversion.cost" model c;
  Alcotest.(check bool) "the plan is the cached one" true
    (plan == Codegen.Plan_cache.conversion machine ~src ~dst ~byte_width:2);
  c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + 1000;
  c.Gpusim.Cost.barriers <- 77;
  let _, c' = Codegen.Plan_cache.priced machine ~src ~dst ~byte_width:2 in
  same_cost "next price unchanged" model c';
  Alcotest.(check bool) "a fresh copy each time" false (c == c')

(* {1 Byte widths} *)

(* A width the planners cannot use is refused by name, before any
   planning or caching, through both entry points. *)
let test_bad_byte_width () =
  let src = bench_src () and dst = bench_dst () in
  Codegen.Plan_cache.clear ();
  Codegen.Plan_cache.reset_stats ();
  let stored = Codegen.Shared_cache.length () in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun byte_width ->
      List.iter
        (fun (entry, f) ->
          match f () with
          | _ -> Alcotest.failf "%s accepted byte width %d" entry byte_width
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, width %d: message names the width and machine (%s)" entry
                   byte_width msg)
                true
                (contains msg (Printf.sprintf "byte width %d " byte_width)
                && contains msg machine.Gpusim.Machine.name))
        [
          ( "Conversion.plan",
            fun () -> ignore (Codegen.Conversion.plan machine ~src ~dst ~byte_width) );
          ( "Plan_cache.conversion",
            fun () -> ignore (Codegen.Plan_cache.conversion machine ~src ~dst ~byte_width) );
          ( "Plan_cache.priced",
            fun () -> ignore (Codegen.Plan_cache.priced machine ~src ~dst ~byte_width) );
        ])
    [ 0; 3; 32 ];
  Alcotest.(check int) "no L1 lookup" 0 (Codegen.Plan_cache.misses () + Codegen.Plan_cache.hits ());
  Alcotest.(check int) "nothing cached" stored (Codegen.Shared_cache.length ())

(* {1 Autotune determinism across domain counts} *)

let test_autotune_deterministic () =
  let gemm = Tir.Kernels.find "gemm" in
  let build = gemm.Tir.Kernels.build in
  let c1, r1 = Tir.Autotune.best machine ~mode:Tir.Engine.Linear ~build ~size:256 in
  let c4, r4 =
    Tir.Autotune.best ~domains:4 machine ~mode:Tir.Engine.Linear ~build ~size:256
  in
  Alcotest.(check int) "same winning config" c1.Tir.Autotune.num_warps
    c4.Tir.Autotune.num_warps;
  Alcotest.(check (float 0.0))
    "same winning cost"
    (Tir.Engine.time machine r1)
    (Tir.Engine.time machine r4)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "memo"
    [
      ( "layout-memo",
        q
          [
            prop_memo_compose;
            prop_memo_invert;
            prop_memo_free_masks;
            prop_intern_hash_consing;
          ] );
      ( "plan-cache",
        [
          Alcotest.test_case "conversion agrees with direct plan" `Quick test_plan_cache_agrees;
          Alcotest.test_case "each price is a fresh copy" `Quick test_priced_copies;
          Alcotest.test_case "bad byte widths are refused by name" `Quick test_bad_byte_width;
        ] );
      ( "transfers",
        [
          Alcotest.test_case "warm transfers equal fresh ones, all machines" `Quick
            test_transfers_warm_equal_fresh;
          Alcotest.test_case "keys tell integer arguments apart" `Quick
            test_transfers_keyed_by_arguments;
          Alcotest.test_case "a re-run assigns the same physical layouts" `Quick
            test_rerun_same_layouts;
          Alcotest.test_case "lookups count; after clear a miss" `Quick test_transfer_counted;
        ] );
      ( "targets",
        [
          Alcotest.test_case "warm lookups equal fresh constructions" `Quick
            test_targets_warm_equal_fresh;
          Alcotest.test_case "keys own a copy of the shape" `Quick test_targets_own_their_shape;
          Alcotest.test_case "lookups count in Memo hits/misses" `Quick test_targets_counted;
          Alcotest.test_case "search is domain-count invariant" `Quick
            test_search_domain_invariant;
        ] );
      ( "engine",
        [
          Alcotest.test_case "engine run exercises the caches" `Quick test_engine_memo_hits;
          Alcotest.test_case "autotune is domain-count invariant" `Quick
            test_autotune_deterministic;
        ] );
    ]
