(* Tests for the mini-IR and the layout engine (Section 4.4), including
   the legacy-vs-linear behavioural differences the paper measures. *)

open Tir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

let test_program_builders () =
  let p = Program.create () in
  let x = Program.load p ~shape:[| 32; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let r = Program.reduce p x ~axis:1 in
  check_int "reduced shape" 1 (Array.length (Program.instr p r).Program.shape);
  let e = Program.expand_dims p r ~axis:1 in
  Alcotest.(check (array int)) "expand" [| 32; 1 |] (Program.instr p e).Program.shape;
  let b = Program.broadcast p e ~shape:[| 32; 64 |] in
  Alcotest.(check (array int)) "broadcast" [| 32; 64 |] (Program.instr p b).Program.shape;
  let t = Program.trans p x ~perm:[| 1; 0 |] in
  Alcotest.(check (array int)) "trans" [| 64; 32 |] (Program.instr p t).Program.shape;
  let rs = Program.reshape p x ~shape:[| 64; 32 |] in
  Alcotest.(check (array int)) "reshape" [| 64; 32 |] (Program.instr p rs).Program.shape;
  check_int "instr count" 6 (Program.length p)

let test_engine_assigns_layouts () =
  let p = Program.create () in
  let x = Program.load p ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let y = Program.elementwise p [ x ] in
  ignore (Program.store p y);
  let r = Engine.run m ~mode:Engine.Linear p in
  Array.iter
    (fun ins ->
      match ins.Program.layout with
      | Some l -> check_bool "surjective" true (Linear_layout.Layout.is_surjective l)
      | None -> Alcotest.fail "missing layout")
    (Program.instrs p);
  check_int "no conversions needed" 0 r.Engine.converts

let test_shape_op_propagation_is_free () =
  (* A chain of shape ops must introduce no conversions in linear mode
     (Theorem 9.3: the family is closed under these operations). *)
  let p = Program.create () in
  let x = Program.load p ~shape:[| 32; 64 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let t = Program.trans p x ~perm:[| 1; 0 |] in
  let rs = Program.reshape p t ~shape:[| 16; 128 |] in
  let e = Program.expand_dims p rs ~axis:0 in
  let b = Program.broadcast p e ~shape:[| 4; 16; 128 |] in
  ignore b;
  let r = Engine.run m ~mode:Engine.Linear p in
  check_int "zero conversions" 0 r.Engine.converts;
  (* Every intermediate still has a valid distributed layout. *)
  Array.iter
    (fun ins ->
      match ins.Program.layout with
      | Some l -> check_bool "distributed" true (Linear_layout.Layout.is_distributed l)
      | None -> Alcotest.fail "missing layout")
    (Program.instrs p)

let test_dot_forces_operand_layouts () =
  let p = Program.create () in
  let a = Program.load p ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let b = Program.load p ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let d = Program.dot p ~a ~b ~acc:Tensor_lib.Dtype.F32 in
  ignore (Program.store p d);
  let r = Engine.run m ~mode:Engine.Linear p in
  check_bool "operand conversions materialized" true (r.Engine.converts >= 2);
  check_bool "staged through shared memory" true (r.Engine.local_loads >= 2)

let test_welford_noop_detection () =
  (* The Section 6.2 welford case: conversions between equivalent
     layouts lower to no-ops under linear layouts but not legacy. *)
  let build () = (Kernels.find "welford").Kernels.build ~size:1024 in
  let lin = Engine.run m ~mode:Engine.Linear (build ()) in
  let leg = Engine.run m ~mode:Engine.Legacy_mode (build ()) in
  check_bool "linear folds equivalent-layout conversions" true
    (lin.Engine.converts < leg.Engine.converts);
  check_bool "linear cheaper" true (Engine.time m lin < Engine.time m leg)

let test_legacy_unsupported_dot () =
  let p = Program.create () in
  let a = Program.load p ~shape:[| 16; 16 |] ~dtype:Tensor_lib.Dtype.F8E4M3 () in
  let b = Program.load p ~shape:[| 16; 16 |] ~dtype:Tensor_lib.Dtype.F8E4M3 () in
  let d = Program.dot p ~a ~b ~acc:Tensor_lib.Dtype.F32 in
  ignore (Program.store p d);
  let leg = Engine.run m ~mode:Engine.Legacy_mode p in
  check_bool "legacy rejects small f8 dot" true (leg.Engine.unsupported <> []);
  let lin = Engine.run m ~mode:Engine.Linear p in
  check_bool "linear supports it" true (lin.Engine.unsupported = [])

let test_legacy_reduction_support () =
  (* Reduction directly over a dot output (MMA layout) is supported;
     legacy cannot reduce over MMA-input or custom layouts.  Here we
     check the support matrix wiring. *)
  check_bool "mma ok" true (Legacy.Support.supports_reduction Legacy.Support.Mma);
  check_bool "mma input not" false (Legacy.Support.supports_reduction Legacy.Support.Mma_input);
  check_bool "sliced mma not" false (Legacy.Support.supports_reduction Legacy.Support.Sliced_mma);
  check_bool "custom not" false (Legacy.Support.supports_reduction Legacy.Support.Custom)

let test_all_kernels_run_both_modes () =
  List.iter
    (fun k ->
      let size = List.hd k.Kernels.sizes in
      List.iter
        (fun mode ->
          let prog = k.Kernels.build ~size in
          let r = Engine.run m ~mode prog in
          let t = Engine.time m r in
          if not (t > 0.) then
            Alcotest.failf "%s has nonpositive cost in a mode" k.Kernels.name)
        [ Engine.Linear; Engine.Legacy_mode ])
    Kernels.all

let test_runs_on () =
  let runs name (mc : Gpusim.Machine.t) = Kernels.runs_on mc (Kernels.find name) in
  List.iter
    (fun (mc : Gpusim.Machine.t) -> check_bool ("gemm on " ^ mc.name) true (runs "gemm" mc))
    Gpusim.Machine.all_with_extras;
  (* 128 KiB is the shared-memory threshold: PVC sits exactly on it. *)
  check_bool "flex_attention on GH200" true (runs "flex_attention" Gpusim.Machine.gh200);
  check_bool "flex_attention on PVC" true (runs "flex_attention" Gpusim.Machine.pvc);
  check_bool "flex_attention on RTX4090" false (runs "flex_attention" Gpusim.Machine.rtx4090);
  check_bool "flex_attention on MI250" false (runs "flex_attention" Gpusim.Machine.mi250);
  let wgmma_kernel = { (Kernels.find "gemm") with Kernels.needs_wgmma = true } in
  check_bool "wgmma kernel on GH200" true (Kernels.runs_on Gpusim.Machine.gh200 wgmma_kernel);
  check_bool "wgmma kernel on MI250" false (Kernels.runs_on Gpusim.Machine.mi250 wgmma_kernel)

let test_linear_never_slower_overall () =
  (* Across the kernel suite, the linear engine should not lose to the
     legacy one (Figure 9's speedups are >= ~1.0x). *)
  List.iter
    (fun k ->
      let size = List.hd k.Kernels.sizes in
      let lin = Engine.run m ~mode:Engine.Linear (k.Kernels.build ~size) in
      let leg = Engine.run m ~mode:Engine.Legacy_mode (k.Kernels.build ~size) in
      let tl = Engine.time m lin and tg = Engine.time m leg in
      if tl > tg *. 1.05 then
        Alcotest.failf "%s: linear %.1f slower than legacy %.1f" k.Kernels.name tl tg)
    Kernels.all

let test_join_split () =
  let p = Program.create () in
  let a = Program.load p ~shape:[| 16; 32 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let b = Program.load p ~shape:[| 16; 32 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let j = Program.join p ~a ~b in
  Alcotest.(check (array int)) "joined shape" [| 16; 32; 2 |] (Program.instr p j).Program.shape;
  let s0 = Program.split p j ~half:0 in
  Alcotest.(check (array int)) "split shape" [| 16; 32 |] (Program.instr p s0).Program.shape;
  ignore (Program.store p s0);
  let r = Engine.run m ~mode:Engine.Linear p in
  (* Both loads have the same default layout, so the join is free; the
     joined layout pairs elements in consecutive registers. *)
  let jl = Option.get (Program.instr p j).Program.layout in
  check_int "new dim from a register" 1
    (List.assoc (Linear_layout.Dims.dim 2) (Linear_layout.Layout.basis jl Linear_layout.Dims.register 0));
  check_bool "joined layout surjective" true (Linear_layout.Layout.is_surjective jl);
  (* Split restores a layout over the original shape. *)
  let sl = Option.get (Program.instr p s0).Program.layout in
  check_bool "split surjective" true (Linear_layout.Layout.is_surjective sl);
  check_int "no conversions" 0 r.Engine.converts

let test_backward_remat () =
  (* A mask computed from iota feeding an elementwise whose other input
     has a different layout: rematerializing the register-computable
     chain in the needed layout beats any conversion (Section 4.4). *)
  let p = Program.create () in
  let y = Program.load p ~shape:[| 32; 32 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let r = Program.reduce p y ~axis:0 in
  let e = Program.expand_dims p r ~axis:0 in
  let b = Program.broadcast p e ~shape:[| 32; 32 |] in
  let mask = Program.iota p ~shape:[| 32; 32 |] ~axis:1 in
  let mask2 = Program.elementwise p ~name:"cast" [ mask ] in
  let z = Program.elementwise p ~name:"add" [ b; mask2 ] in
  ignore (Program.store p z);
  let res = Engine.run m ~mode:Engine.Linear p in
  check_bool "iota chain rematerialized" true
    (res.Engine.remats >= 1 || res.Engine.converts = 0);
  (* And the program still evaluates correctly through layouts. *)
  let inputs = Interp.synth_inputs p in
  let a = Interp.reference p ~inputs and bl = Interp.through_layouts m p ~inputs in
  List.iter2
    (fun (_, t1) (_, t2) ->
      check_bool "values agree" true (Tensor_lib.Tensor.max_abs_diff t1 t2 = 0.))
    a bl

let test_validate_all_kernels () =
  (* The post-engine verifier accepts every kernel's assignment in
     linear mode. *)
  List.iter
    (fun k ->
      let prog = k.Kernels.build ~size:(List.hd k.Kernels.sizes) in
      ignore (Engine.run m ~mode:Engine.Linear prog);
      Alcotest.(check (list string))
        (k.Kernels.name ^ " verifies") []
        (List.map
           (fun (d : Linear_layout.Diagnostics.t) -> d.Linear_layout.Diagnostics.code)
           (Linear_layout.Diagnostics.errors (Verifier.program prog))))
    Kernels.all

let test_validate_catches_bad_assignment () =
  let p = Program.create () in
  let x = Program.load p ~shape:[| 16; 16 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let t = Program.trans p x ~perm:[| 1; 0 |] in
  ignore (Program.store p t);
  ignore (Engine.run m ~mode:Engine.Linear p);
  (* Corrupt the transpose's layout: give it the untransposed one. *)
  (Program.instr p t).Program.layout <- (Program.instr p x).Program.layout;
  check_bool "verifier flags it" true (Verifier.program p <> [])

let test_kernel_stats_nontrivial () =
  let r = Engine.run m ~mode:Engine.Linear ((Kernels.find "gemm").Kernels.build ~size:1024) in
  check_bool "gemm uses shared memory" true (r.Engine.local_loads > 0);
  let r2 =
    Engine.run m ~mode:Engine.Linear ((Kernels.find "vector_add").Kernels.build ~size:1024)
  in
  check_int "vector_add has no converts" 0 r2.Engine.converts

(* {1 Pass certificates}

   Mutate the pass state after [Certify.take_snapshot], the way a buggy
   pass would, and pin the LL62x refutation with its witness. *)

(* A dot program after [anchor] and [forward_propagate]: every value has
   a layout and the dot's operand conversions are pending. *)
let propagated_dot () =
  let p = Program.create () in
  let a = Program.load p ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let b = Program.load p ~shape:[| 64; 64 |] ~dtype:Tensor_lib.Dtype.F16 () in
  let d = Program.dot p ~a ~b ~acc:Tensor_lib.Dtype.F32 in
  ignore (Program.store p d);
  let st = Pass.init m ~mode:Pass.Linear p in
  List.iter (fun (module P : Pass.PASS) -> P.run st) [ Passes.anchor; Passes.forward_propagate ];
  (st, a, d)

let certify_mutant mutate =
  let st, a, d = propagated_dot () in
  let snap = Certify.take_snapshot st in
  mutate st ~a ~d;
  let cert, diags = Certify.certify_pass ~pass:"mutant" snap st in
  check_int "refuted count" (List.length diags) cert.Certify.refuted;
  List.map
    (fun (g : Linear_layout.Diagnostics.t) ->
      (g.Linear_layout.Diagnostics.code, g.Linear_layout.Diagnostics.message))
    diags

let check_diags = Alcotest.(check (list (pair string string)))

let test_certify_unrecorded_relayout () =
  let diags =
    certify_mutant (fun st ~a ~d:_ ->
        let ins = Program.instr st.Pass.prog a in
        let l = Option.get ins.Program.layout in
        (* Move the top hardware bit onto a different element; the
           lower columns, and so the witness, are left alone. *)
        let open Linear_layout in
        let cols = F2.Bitmatrix.columns (Layout.to_matrix l) in
        let top = Array.length cols - 1 in
        cols.(top) <- cols.(top) lxor cols.(0);
        ins.Program.layout <-
          Some
            (Layout.of_matrix ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
               (F2.Bitmatrix.make ~rows:(Layout.total_out_bits l) cols)))
  in
  check_diags "LL620"
    [
      ( "LL620",
        "pass mutant changed the layout of %0 without a recorded conversion: hardware point \
         0b100000000000 maps to different logical elements" );
    ]
    diags

let test_certify_dropped_assignment () =
  let diags =
    certify_mutant (fun st ~a:_ ~d -> (Program.instr st.Pass.prog d).Program.layout <- None)
  in
  check_diags "LL621" [ ("LL621", "pass mutant dropped the layout assignment of %2") ] diags

let test_certify_dropped_conversion () =
  let diags =
    certify_mutant (fun st ~a ~d:_ ->
        let dropped = ref false in
        st.Pass.pending <-
          List.filter
            (function
              | Pass.Convert r when r.Pass.src = a && not !dropped ->
                  dropped := true;
                  false
              | _ -> true)
            st.Pass.pending;
        check_bool "a conversion was pending" true !dropped)
  in
  check_diags "LL622"
    [
      ( "LL622",
        "pass mutant dropped the conversion request for %0 without justification: hardware \
         point 0b000000000010 still disagrees" );
    ]
    diags

(* A mutant [insert_conversions] that plans the dot's operand
   conversions but records none of them: the requests survive
   unmaterialized, and plan certification reports one LL623 error
   each. *)
let test_certify_unmaterialized_request () =
  let st, _, d = propagated_dot () in
  List.iter
    (fun (module P : Pass.PASS) -> P.run st)
    [ Passes.simplify; Passes.backward_remat; Passes.insert_conversions ];
  let dropped = List.filter (fun (c : Pass.conversion_info) -> c.Pass.at = d) st.Pass.convs in
  check_bool "the dot's operands were converted" true (dropped <> []);
  st.Pass.convs <- List.filter (fun (c : Pass.conversion_info) -> c.Pass.at <> d) st.Pass.convs;
  let _, diags = Certify.plans st in
  let fired =
    List.map
      (fun (g : Linear_layout.Diagnostics.t) ->
        ( g.Linear_layout.Diagnostics.code,
          g.Linear_layout.Diagnostics.severity = Linear_layout.Diagnostics.Error ))
      diags
  in
  Alcotest.(check (list (pair string bool)))
    "one LL623 error per dropped conversion"
    (List.map (fun _ -> ("LL623", true)) dropped)
    fired

let () =
  Alcotest.run "tir"
    (Shuffle_support.maybe_shuffle
    [
      ( "program",
        [ Alcotest.test_case "builders infer shapes" `Quick test_program_builders ] );
      ( "engine",
        [
          Alcotest.test_case "assigns layouts" `Quick test_engine_assigns_layouts;
          Alcotest.test_case "shape ops are free" `Quick test_shape_op_propagation_is_free;
          Alcotest.test_case "dot forces operand layouts" `Quick test_dot_forces_operand_layouts;
          Alcotest.test_case "welford no-op detection" `Quick test_welford_noop_detection;
          Alcotest.test_case "legacy unsupported dot" `Quick test_legacy_unsupported_dot;
          Alcotest.test_case "legacy reduction support" `Quick test_legacy_reduction_support;
          Alcotest.test_case "join/split" `Quick test_join_split;
          Alcotest.test_case "backward remat" `Quick test_backward_remat;
          Alcotest.test_case "verifier accepts kernels" `Quick test_validate_all_kernels;
          Alcotest.test_case "verifier catches corruption" `Quick
            test_validate_catches_bad_assignment;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "all kernels run in both modes" `Quick test_all_kernels_run_both_modes;
          Alcotest.test_case "runs_on checks wgmma and shared memory" `Quick test_runs_on;
          Alcotest.test_case "linear never slower" `Quick test_linear_never_slower_overall;
          Alcotest.test_case "stats are nontrivial" `Quick test_kernel_stats_nontrivial;
        ] );
      ( "certify",
        [
          Alcotest.test_case "unrecorded relayout fires LL620" `Quick
            test_certify_unrecorded_relayout;
          Alcotest.test_case "dropped assignment fires LL621" `Quick
            test_certify_dropped_assignment;
          Alcotest.test_case "dropped conversion fires LL622" `Quick
            test_certify_dropped_conversion;
          Alcotest.test_case "unmaterialized request fires LL623" `Quick
            test_certify_unmaterialized_request;
        ] );
    ])
