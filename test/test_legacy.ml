(* Tests for the legacy-Triton baseline: the contiguity heuristic, the
   padded shared-memory conversion, and the support matrix. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

let params ?(order = [| 1; 0 |]) ~spt ~tpw ~warps shape =
  {
    Blocked.shape;
    size_per_thread = spt;
    threads_per_warp = tpw;
    warps_per_cta = warps;
    order;
  }

(* {1 Contiguity heuristic — the Table 3 discrepancy} *)

let test_contig_fastest_dim_only () =
  (* Per-thread tile of 8x2 over a [512,2] tensor: truly 16 contiguous
     elements, but legacy sees only the 2 along the fastest dim. *)
  let p = params ~spt:[| 8; 2 |] ~tpw:[| 32; 1 |] ~warps:[| 4; 1 |] [| 512; 2 |] in
  check_int "legacy sees 2" 2 (Legacy.Contig.max_contiguous p);
  check_int "linear sees 16" 16
    (Layout.num_consecutive (Blocked.make p) ~in_dim:Dims.register);
  check_int "legacy bits" 16 (Legacy.Contig.vector_bits p ~byte_width:1 ~max_bits:128)

let test_contig_size_one_fallback () =
  (* [512,1]: the fastest dimension has one element; legacy falls back
     to 1-D behaviour and matches the true contiguity. *)
  let p = params ~spt:[| 4; 1 |] ~tpw:[| 32; 1 |] ~warps:[| 4; 1 |] [| 512; 1 |] in
  check_int "legacy 1d fallback" 4 (Legacy.Contig.max_contiguous p);
  check_int "linear agrees" 4 (Layout.num_consecutive (Blocked.make p) ~in_dim:Dims.register)

(* {1 Padded conversion} *)

let test_padded_offset () =
  check_int "no pad" 10 (Legacy.Convert.padded_offset ~cols:8 ~pad:0 1 2);
  check_int "pad 4" 14 (Legacy.Convert.padded_offset ~cols:8 ~pad:4 1 2);
  check_int "default pad f32" 4 (Legacy.Convert.default_pad ~byte_width:4);
  check_int "default pad f8" 16 (Legacy.Convert.default_pad ~byte_width:1)

let test_padding_removes_column_conflicts () =
  (* A column-major read of a row-major scratch: unpadded = 32-way
     conflicts; padding fixes it (that is why legacy used it). *)
  let dst =
    Blocked.make (params ~order:[| 0; 1 |] ~spt:[| 1; 1 |] ~tpw:[| 32; 1 |] ~warps:[| 1; 1 |]
       [| 32; 32 |])
  in
  let unpadded logical = logical in
  let padded =
    let pad = Legacy.Convert.default_pad ~byte_width:4 in
    fun logical -> Legacy.Convert.padded_offset ~cols:32 ~pad (logical / 32) (logical mod 32)
  in
  let wf_un, _, _ = Legacy.Convert.measure m ~dist:dst ~addr_of:unpadded ~byte_width:4 in
  let wf_pad, _, _ = Legacy.Convert.measure m ~dist:dst ~addr_of:padded ~byte_width:4 in
  check_bool
    (Printf.sprintf "padding helps: %d < %d" wf_pad wf_un)
    true (wf_pad < wf_un)

let test_legacy_cost_positive () =
  let src =
    Blocked.make (params ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] ~warps:[| 1; 1 |] [| 32; 32 |])
  in
  let dst =
    Blocked.make (params ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] ~warps:[| 1; 1 |]
       [| 32; 32 |])
  in
  let c = Legacy.Convert.cost m ~src ~dst ~byte_width:4 in
  check_bool "positive" true (Gpusim.Cost.estimate m c > 0.);
  check_bool "uses shared memory" true (c.Gpusim.Cost.smem_insts > 0);
  check_int "barrier" 1 c.Gpusim.Cost.barriers;
  check_bool "scratch includes padding" true
    (Legacy.Convert.scratch_bytes ~src ~byte_width:4 > 32 * 32 * 4)

let test_legacy_never_beats_optimal_swizzle () =
  (* On transposes, padded legacy conversions should cost at least as
     much as the optimal swizzle (Figure 2's premise). *)
  List.iter
    (fun (spt_s, spt_d) ->
      let src = Blocked.make (params ~spt:spt_s ~tpw:[| 8; 4 |] ~warps:[| 1; 1 |] [| 32; 32 |]) in
      let dst =
        Blocked.make (params ~order:[| 0; 1 |] ~spt:spt_d ~tpw:[| 4; 8 |] ~warps:[| 1; 1 |]
           [| 32; 32 |])
      in
      let legacy_cost = Gpusim.Cost.estimate m (Legacy.Convert.cost m ~src ~dst ~byte_width:1) in
      let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:1 in
      let linear_cost =
        Gpusim.Cost.estimate m (Codegen.Swizzle_opt.cost s ~src ~dst)
      in
      check_bool
        (Printf.sprintf "optimal (%f) <= legacy (%f)" linear_cost legacy_cost)
        true (linear_cost <= legacy_cost))
    [ ([| 1; 4 |], [| 4; 1 |]); ([| 1; 8 |], [| 8; 1 |]); ([| 2; 2 |], [| 2; 2 |]) ]

(* {1 The kind-dispatched legacy layer} *)

let blocked_params =
  {
    Blocked.shape = [| 32; 32 |];
    size_per_thread = [| 2; 2 |];
    threads_per_warp = [| 4; 8 |];
    warps_per_cta = [| 2; 1 |];
    order = [| 1; 0 |];
  }

let test_kinds_to_linear () =
  (* Section 3's backward-compatibility utility: every legacy layout is
     a linear layout, and the per-kind methods agree with the generic
     computation wherever legacy had a rule at all. *)
  let b = Legacy.Kinds.Blocked blocked_params in
  let l = Legacy.Kinds.to_linear b in
  check_bool "blocked is distributed" true (Layout.is_distributed l);
  (match Legacy.Kinds.elems_per_thread b with
  | Some n -> check_int "elems agree with linear" (Layout.in_size l Dims.register) n
  | None -> Alcotest.fail "blocked must have a rule");
  (match Legacy.Kinds.contig_per_thread b with
  | Some c ->
      check_int "contig agrees with linear" (Layout.num_consecutive l ~in_dim:Dims.register) c
  | None -> Alcotest.fail "blocked must have a contig rule");
  let mma = Legacy.Kinds.Mma { warps = [| 2; 1 |]; shape = [| 32; 32 |] } in
  let lm = Legacy.Kinds.to_linear mma in
  (match Legacy.Kinds.elems_per_thread mma with
  | Some n -> check_int "mma elems agree" (Layout.in_size lm Dims.register) n
  | None -> Alcotest.fail "mma must have a rule")

let test_kinds_gaps () =
  (* The gaps: operand and sliced layouts have no per-kind rules even
     though the generic linear computation handles them fine. *)
  let op =
    Legacy.Kinds.Mma_operand { idx = 0; bitwidth = 16; warps = [| 2; 1 |]; shape = [| 32; 32 |] }
  in
  check_bool "no legacy elems rule" true (Legacy.Kinds.elems_per_thread op = None);
  check_bool "linear computes it anyway" true
    (Layout.in_size (Legacy.Kinds.to_linear op) Dims.register > 0);
  let sl = Legacy.Kinds.Sliced { parent = op; dim = 1 } in
  check_bool "no reduce over sliced operand" false (Legacy.Kinds.supports_reduce sl);
  check_bool "linear slices it anyway" true
    (Layout.is_surjective (Legacy.Kinds.to_linear sl))

let test_kinds_conversion_matrix () =
  (* The quadratic explosion: count how many ordered kind pairs have a
     hand-written conversion. *)
  let samples =
    [
      Legacy.Kinds.Blocked blocked_params;
      Legacy.Kinds.Mma { warps = [| 2; 1 |]; shape = [| 32; 32 |] };
      Legacy.Kinds.Mma_operand
        { idx = 0; bitwidth = 16; warps = [| 2; 1 |]; shape = [| 32; 32 |] };
      Legacy.Kinds.Sliced { parent = Legacy.Kinds.Blocked blocked_params; dim = 1 };
    ]
  in
  let supported = ref 0 and total = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr total;
          if Legacy.Kinds.conversion_supported a b then incr supported)
        samples)
    samples;
  check_bool "most pairs unsupported" true (!supported * 2 < !total + 2);
  check_int "total pairs" 16 !total

(* {1 Support matrix} *)

let test_supports_dot () =
  let open Tensor_lib in
  (* Large shapes with >= 16-bit types pass. *)
  check_bool "f16 big" true
    (Legacy.Support.supports_dot ~a:Dtype.F16 ~b:Dtype.F16 ~m:64 ~n:64 ~k:64);
  (* Small shapes with 8-bit types fail (32-bit packed runs don't fit). *)
  check_bool "f8 small" false
    (Legacy.Support.supports_dot ~a:Dtype.F8E4M3 ~b:Dtype.F8E4M3 ~m:16 ~n:16 ~k:16);
  (* Mixed i8 x f16 needs an upcast legacy cannot lay out. *)
  check_bool "i8xf16" false
    (Legacy.Support.supports_dot ~a:Dtype.I8 ~b:Dtype.F16 ~m:64 ~n:64 ~k:64);
  (* Same low-precision type on both sides is handled (native path). *)
  check_bool "i8xi8... via f8 rule" true
    (Legacy.Support.supports_dot ~a:Dtype.I8 ~b:Dtype.I8 ~m:64 ~n:64 ~k:64)

let test_kind_names () =
  check_int "7 kinds" 7 (List.length Legacy.Support.all_kinds);
  check_bool "cross-kind incomparable" false
    (Legacy.Support.can_compare Legacy.Support.Blocked Legacy.Support.Sliced_blocked);
  check_bool "same kind comparable" true
    (Legacy.Support.can_compare Legacy.Support.Mma Legacy.Support.Mma)

let () =
  Alcotest.run "legacy"
    [
      ( "contiguity",
        [
          Alcotest.test_case "fastest dim only" `Quick test_contig_fastest_dim_only;
          Alcotest.test_case "size-1 fallback" `Quick test_contig_size_one_fallback;
        ] );
      ( "padded conversion",
        [
          Alcotest.test_case "padded offsets" `Quick test_padded_offset;
          Alcotest.test_case "padding removes conflicts" `Quick
            test_padding_removes_column_conflicts;
          Alcotest.test_case "cost positive" `Quick test_legacy_cost_positive;
          Alcotest.test_case "never beats optimal swizzle" `Quick
            test_legacy_never_beats_optimal_swizzle;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "to_linear + method agreement" `Quick test_kinds_to_linear;
          Alcotest.test_case "method gaps" `Quick test_kinds_gaps;
          Alcotest.test_case "conversion matrix" `Quick test_kinds_conversion_matrix;
        ] );
      ( "support",
        [
          Alcotest.test_case "dot support" `Quick test_supports_dot;
          Alcotest.test_case "kinds" `Quick test_kind_names;
        ] );
    ]
