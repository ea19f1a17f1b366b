(* Tests for the extension features: scans, autotuning, multi-CTA
   distribution, and cross-CTA conversions. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

(* {1 Scan} *)

let scan_prog ~reverse ~with_reduce =
  let p = Tir.Program.create () in
  let x = Tir.Program.load p ~shape:[| 32; 512 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let x =
    if with_reduce then begin
      let r = Tir.Program.reduce p x ~axis:1 in
      let rb =
        Tir.Program.broadcast p (Tir.Program.expand_dims p r ~axis:1) ~shape:[| 32; 512 |]
      in
      Tir.Program.elementwise p [ x; rb ]
    end
    else x
  in
  let s = Tir.Program.scan p x ~axis:1 ~reverse in
  ignore (Tir.Program.store p s);
  p

let test_scan_linear () =
  let r = Tir.Engine.run m ~mode:Tir.Engine.Linear (scan_prog ~reverse:false ~with_reduce:false) in
  check_bool "uses warp shuffles" true (r.Tir.Engine.cost.Gpusim.Cost.shuffles > 0);
  check_bool "no failures" true (r.Tir.Engine.unsupported = []);
  (* Reverse scans are free relabelings under affine layouts. *)
  let rr = Tir.Engine.run m ~mode:Tir.Engine.Linear (scan_prog ~reverse:true ~with_reduce:true) in
  check_bool "reverse + reduce fine in linear" true (rr.Tir.Engine.unsupported = [])

let test_scan_legacy_bugs () =
  (* The two cited legacy scan bugs: reverse=True miscompiles, and
     mixing tl.sum with tl.cumsum miscompiles. *)
  let rev = Tir.Engine.run m ~mode:Tir.Engine.Legacy_mode (scan_prog ~reverse:true ~with_reduce:false) in
  check_bool "reverse scan flagged" true (rev.Tir.Engine.unsupported <> []);
  let mixed =
    Tir.Engine.run m ~mode:Tir.Engine.Legacy_mode (scan_prog ~reverse:false ~with_reduce:true)
  in
  check_bool "sum+cumsum flagged" true (mixed.Tir.Engine.unsupported <> []);
  let plain =
    Tir.Engine.run m ~mode:Tir.Engine.Legacy_mode (scan_prog ~reverse:false ~with_reduce:false)
  in
  check_bool "plain scan fine in legacy" true (plain.Tir.Engine.unsupported = [])

(* {1 Autotune} *)

let test_autotune_beats_or_ties_default () =
  List.iter
    (fun name ->
      let k = Tir.Kernels.find name in
      let gain =
        Tir.Autotune.tuning_gain m ~mode:Tir.Engine.Linear ~build:k.Tir.Kernels.build
          ~size:(List.hd k.Tir.Kernels.sizes)
      in
      if gain < 0.999 then Alcotest.failf "%s: tuning made things worse (%.3f)" name gain)
    [ "gemm"; "softmax"; "vector_add"; "cumsum" ]

let test_autotune_picks_valid_config () =
  let k = Tir.Kernels.find "softmax" in
  let cfg, r =
    Tir.Autotune.best m ~mode:Tir.Engine.Linear ~build:k.Tir.Kernels.build ~size:1024
  in
  check_bool "warps in range" true
    (List.exists (fun c -> c = cfg) Tir.Autotune.default_configs);
  check_bool "result populated" true (Tir.Engine.time m r > 0.)

(* {1 CGA / cross-CTA} *)

let test_cga_distribute () =
  let per_cta = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 64; 64 |] in
  let grid = Cga.distribute per_cta ~blocks:[| 2; 2 |] ~shape:[| 128; 128 |] in
  check_int "4 CTAs" 4 (Cga.num_blocks grid);
  check_bool "covers the big tensor" true (Layout.is_surjective grid);
  check_int "dim0" 128 (Layout.out_size grid (Dims.dim 0));
  check_bool "still distributed" true (Layout.is_distributed grid)

let test_cross_cta_conversion () =
  let per_cta = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 64; 64 |] in
  let row_blocks = Cga.distribute per_cta ~blocks:[| 4; 1 |] ~shape:[| 256; 64 |] in
  let col_blocks =
    Cga.distribute
      (Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 256; 16 |])
      ~blocks:[| 1; 4 |] ~shape:[| 256; 64 |]
  in
  let plan = Codegen.Conversion.plan m ~src:row_blocks ~dst:col_blocks ~byte_width:4 in
  Alcotest.(check string) "classified cross-CTA" "global memory (cross-CTA)"
    (Codegen.Conversion.mechanism_name plan.mechanism);
  (* It has no warp-level lowering: translation validation proves it
     algebraically. *)
  check_bool "data converted" true
    ((Analysis.Transval.certify_plan m plan).Analysis.Transval.verdict
    = Analysis.Transval.Proved);
  (* And costs more than an intra-CTA conversion of the same volume. *)
  let intra =
    Codegen.Conversion.plan m ~src:per_cta
      ~dst:(Blocked.default ~elems_per_thread:2 ~warp_size:32 ~num_warps:4 [| 64; 64 |])
      ~byte_width:4
  in
  check_bool "global costs more than shared" true
    (Gpusim.Cost.estimate m (Codegen.Conversion.cost m plan)
    > Gpusim.Cost.estimate m (Codegen.Conversion.cost m intra))

let test_shuffle_rejects_cross_cta () =
  let per_cta = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 64; 64 |] in
  let a = Cga.distribute per_cta ~blocks:[| 2; 1 |] ~shape:[| 128; 64 |] in
  let b =
    Cga.distribute
      (Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 128; 32 |])
      ~blocks:[| 1; 2 |] ~shape:[| 128; 64 |]
  in
  match Codegen.Shuffle.plan ~src:a ~dst:b ~byte_width:4 with
  | Ok _ -> Alcotest.fail "shuffles cannot cross CTAs"
  | Error _ -> ()

let () =
  Alcotest.run "extensions"
    [
      ( "scan",
        [
          Alcotest.test_case "linear scans" `Quick test_scan_linear;
          Alcotest.test_case "legacy scan bugs" `Quick test_scan_legacy_bugs;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "never worse than default" `Quick test_autotune_beats_or_ties_default;
          Alcotest.test_case "picks valid config" `Quick test_autotune_picks_valid_config;
        ] );
      ( "cga",
        [
          Alcotest.test_case "distribute" `Quick test_cga_distribute;
          Alcotest.test_case "cross-CTA conversion" `Quick test_cross_cta_conversion;
          Alcotest.test_case "shuffle rejects cross-CTA" `Quick test_shuffle_rejects_cross_cta;
        ] );
    ]
