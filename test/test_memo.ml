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
        ] );
      ( "engine",
        [
          Alcotest.test_case "engine run exercises the caches" `Quick test_engine_memo_hits;
          Alcotest.test_case "autotune is domain-count invariant" `Quick
            test_autotune_deterministic;
        ] );
    ]
