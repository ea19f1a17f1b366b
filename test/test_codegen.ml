(* Tests for the Section 5 code-generation algorithms: SIMD matching,
   warp shuffles, optimal swizzling, conversion planning, gather. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

let blocked ?(warps = [| 1; 1 |]) ?(order = [| 1; 0 |]) ~spt ~tpw shape =
  Blocked.make
    {
      shape;
      size_per_thread = spt;
      threads_per_warp = tpw;
      warps_per_cta = warps;
      order;
    }

(* {1 Simd} *)

let test_vec_tile () =
  let t = Codegen.Simd.vec_tile ~bits:128 ~byte_width:4 in
  check_int "4 elements" 4 (Layout.in_size t Dims.register);
  check_int "offset bits" 2 (Layout.out_bits t Dims.offset)

let test_ldmatrix_match () =
  (* f16 elements, each thread holding 2 consecutive, 4-thread groups
     per row: exactly the ldmatrix tile. *)
  let dist = blocked ~spt:[| 1; 2 |] ~tpw:[| 8; 4 |] [| 8; 8 |] in
  let mem = Shared.row_major ~shape:[| 8; 8 |] in
  let reg_to_off =
    Layout.compose (Layout.invert (Layout.flatten_outs mem)) (Layout.flatten_outs dist)
  in
  check_bool "ldmatrix ok" true (Codegen.Simd.can_use_ldmatrix reg_to_off ~byte_width:2);
  (* A column-major access pattern cannot use ldmatrix. *)
  let dist_t = blocked ~order:[| 0; 1 |] ~spt:[| 2; 1 |] ~tpw:[| 4; 8 |] [| 8; 8 |] in
  let l_t =
    Layout.compose (Layout.invert (Layout.flatten_outs mem)) (Layout.flatten_outs dist_t)
  in
  check_bool "ldmatrix rejected" false (Codegen.Simd.can_use_ldmatrix l_t ~byte_width:2)

let test_max_vector_bits () =
  let dist = blocked ~spt:[| 1; 8 |] ~tpw:[| 32; 1 |] [| 32; 8 |] in
  let mem = Shared.row_major ~shape:[| 32; 8 |] in
  let l = Layout.compose (Layout.invert (Layout.flatten_outs mem)) (Layout.flatten_outs dist) in
  check_int "8 x f16 = 128 bits" 128
    (Codegen.Simd.max_vector_bits l ~byte_width:2 ~max_bits:128)

let test_vectorizable_register_bits () =
  (* A register-permuted layout: registers map to offsets out of order. *)
  let l =
    Layout.make
      ~ins:[ (Dims.register, 2) ]
      ~outs:[ (Dims.offset, 2) ]
      ~bases:[ (Dims.register, [ [ (Dims.offset, 2) ]; [ (Dims.offset, 1) ] ]) ]
  in
  (* Offset bit 0 comes from register bit 1, offset bit 1 from bit 0. *)
  Alcotest.(check (list int)) "permutation found" [ 1; 0 ]
    (Codegen.Simd.vectorizable_register_bits l)

(* {1 Shuffle} *)

let unwrap = function Ok x -> x | Error e -> Alcotest.fail e

(* Run a conversion plan's lowered program on [d]. *)
let run_plan plan d = fst (Codegen.Lower.run m plan d)

let run_shuffle (p : Codegen.Shuffle.t) d =
  run_plan
    {
      Codegen.Conversion.src = p.Codegen.Shuffle.src;
      dst = p.Codegen.Shuffle.dst;
      byte_width = 4;
      mechanism = Codegen.Conversion.Warp_shuffle p;
    }
    d

let test_shuffle_small () =
  (* An 8-element vector: src interleaves lanes at stride 2, dst at
     stride 1 — the Figure 4 style exchange. *)
  let src =
    Layout.make
      ~ins:[ (Dims.register, 1); (Dims.lane, 2) ]
      ~outs:[ (Dims.dim 0, 3) ]
      ~bases:
        [
          (Dims.register, [ [ (Dims.dim 0, 1) ] ]);
          (Dims.lane, [ [ (Dims.dim 0, 2) ]; [ (Dims.dim 0, 4) ] ]);
        ]
  in
  let dst =
    Layout.make
      ~ins:[ (Dims.register, 1); (Dims.lane, 2) ]
      ~outs:[ (Dims.dim 0, 3) ]
      ~bases:
        [
          (Dims.register, [ [ (Dims.dim 0, 4) ] ]);
          (Dims.lane, [ [ (Dims.dim 0, 1) ]; [ (Dims.dim 0, 2) ] ]);
        ]
    in
  let p = unwrap (Codegen.Shuffle.plan ~src ~dst ~byte_width:4) in
  check_bool "rounds is a power of two" true (p.Codegen.Shuffle.rounds > 0);
  let d = Gpusim.Dist.init src ~f:(fun i -> 100 + i) in
  let d' = run_shuffle p d in
  check_bool "data lands in dst layout" true
    (Gpusim.Dist.consistent_with d' ~f:(fun i -> 100 + i))

let test_shuffle_mma_to_blocked () =
  (* Convert an mma accumulator to a blocked layout within one warp. *)
  let src = Mma.output ~bitwidth:32 ~warps:[| 1; 1 |] ~shape:[| 16; 16 |] () in
  let dst = blocked ~spt:[| 1; 8 |] ~tpw:[| 16; 2 |] [| 16; 16 |] in
  let p = unwrap (Codegen.Shuffle.plan ~src ~dst ~byte_width:4) in
  let d = Gpusim.Dist.init src ~f:(fun i -> i * 3) in
  let d' = run_shuffle p d in
  check_bool "converted" true (Gpusim.Dist.consistent_with d' ~f:(fun i -> i * 3));
  check_bool "dst layout" true (Layout.equal d'.Gpusim.Dist.layout dst)

let test_shuffle_rejects_cross_warp () =
  let src = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let dst = blocked ~warps:[| 1; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  match Codegen.Shuffle.plan ~src ~dst ~byte_width:4 with
  | Ok _ -> Alcotest.fail "cross-warp conversion must be rejected"
  | Error _ -> ()

let test_shuffle_identity_is_trivial () =
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let p = unwrap (Codegen.Shuffle.plan ~src:l ~dst:l ~byte_width:4) in
  (* All thread bits are common: G is empty, and the vectorized common
     registers keep rounds low. *)
  check_int "no exchanges needed" 0 (List.length p.Codegen.Shuffle.g)

(* Same number of logical bits, different tensors: an 8x4 (dim0 x dim1)
   and a 4x8 one.  Comparing only bit totals would accept the pair. *)
let transposed_shapes () =
  let id bits in_dim d = Layout.identity1d bits ~in_dim ~out_dim:(Dims.dim d) in
  ( Layout.mul (id 2 Dims.register 1) (id 3 Dims.lane 0),
    Layout.mul (id 3 Dims.register 1) (id 2 Dims.lane 0) )

let test_shuffle_rejects_other_shape () =
  let src, dst = transposed_shapes () in
  match Codegen.Shuffle.plan ~src ~dst ~byte_width:4 with
  | Ok _ -> Alcotest.fail "an 8x4 to 4x8 conversion must be rejected"
  | Error e -> Alcotest.(check string) "reason" "layouts cover different logical spaces" e

(* {1 Swizzle_opt} *)

let test_swizzle_rejects_other_shape () =
  let src, dst = transposed_shapes () in
  match Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 with
  | _ -> Alcotest.fail "an 8x4 to 4x8 swizzle must be rejected"
  | exception Invalid_argument e ->
      Alcotest.(check string)
        "reason" "Swizzle_opt.optimal: layouts cover different logical spaces" e

let per_inst_check name s ~dist ~byte_width ~expected_free =
  let total, insts =
    Codegen.Swizzle_opt.wavefronts m ~mem:s.Codegen.Swizzle_opt.mem ~dist ~byte_width
      ~vec:s.Codegen.Swizzle_opt.vec
  in
  if total mod insts <> 0 then
    Alcotest.failf "%s: %d wavefronts not divisible by %d insts" name total insts;
  let per_inst = total / insts in
  let n = max 1 ((1 lsl s.Codegen.Swizzle_opt.vec_bits) * byte_width / 4) in
  if expected_free then check_int (name ^ " conflict-free") n per_inst;
  per_inst

let test_swizzle_transpose_f32 () =
  (* Transposed access: row-major write layout vs column-major read
     layout; unswizzled memory would conflict heavily, the optimal
     swizzle is conflict-free both ways. *)
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let dst = blocked ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 in
  check_bool "memory layout invertible" true (Layout.is_invertible s.Codegen.Swizzle_opt.mem);
  let st = per_inst_check "store" s ~dist:src ~byte_width:4 ~expected_free:true in
  let ld = per_inst_check "load" s ~dist:dst ~byte_width:4 ~expected_free:true in
  check_int "predicted store" s.Codegen.Swizzle_opt.store_wavefronts st;
  check_int "predicted load" s.Codegen.Swizzle_opt.load_wavefronts ld

let test_swizzle_beats_unswizzled () =
  (* With an unswizzled (row-major) scratch buffer, the column-major
     read has severe conflicts; the optimal layout removes them. *)
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let dst = blocked ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 in
  let naive_mem = Shared.row_major ~shape:[| 32; 32 |] in
  let naive, _ =
    Codegen.Swizzle_opt.wavefronts m ~mem:naive_mem ~dist:dst ~byte_width:4 ~vec:[]
  in
  let opt, _ =
    Codegen.Swizzle_opt.wavefronts m ~mem:s.Codegen.Swizzle_opt.mem ~dist:dst
      ~byte_width:4 ~vec:s.Codegen.Swizzle_opt.vec
  in
  check_bool
    (Printf.sprintf "optimal (%d) < naive (%d)" opt naive)
    true (opt < naive)

let test_swizzle_execute_correct () =
  let src = Mma.output ~bitwidth:32 ~warps:[| 2; 2 |] ~shape:[| 32; 32 |] () in
  let dst = blocked ~warps:[| 4; 1 |] ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 in
  let d = Gpusim.Dist.init src ~f:(fun i -> i + 11) in
  let plan =
    { Codegen.Conversion.src; dst; byte_width = 4; mechanism = Codegen.Conversion.Shared_memory s }
  in
  let d' = run_plan plan d in
  check_bool "converted" true (Gpusim.Dist.consistent_with d' ~f:(fun i -> i + 11))

(* {1 Operand staging (mma swizzle + ldmatrix)} *)

let test_operand_staging_ldmatrix () =
  let src = Blocked.default ~elems_per_thread:8 ~warp_size:32 ~num_warps:4 [| 128; 64 |] in
  let dst = Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 4; 1 |] ~shape:[| 128; 64 |] () in
  (match Codegen.Operand_staging.plan m ~src ~dst ~byte_width:2 with
  | Some staging ->
      check_bool "ldmatrix used on GH200" true staging.Codegen.Operand_staging.uses_ldmatrix;
      check_bool "ldmatrix instructions counted" true
        (staging.Codegen.Operand_staging.staging_cost.Gpusim.Cost.ldmatrix > 0);
      check_bool "Def 4.11 parameters sane" true
        (staging.Codegen.Operand_staging.vec >= 2
        && staging.Codegen.Operand_staging.per_phase >= 1
        && staging.Codegen.Operand_staging.max_phase >= 1)
  | None -> Alcotest.fail "staging plan expected");
  (* No ldmatrix on AMD: the plan degrades to plain accesses. *)
  match Codegen.Operand_staging.plan Gpusim.Machine.mi250 ~src ~dst ~byte_width:2 with
  | Some staging ->
      check_bool "no ldmatrix on MI250" false staging.Codegen.Operand_staging.uses_ldmatrix
  | None -> ()

let test_operand_staging_rejects_1d () =
  let src = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 1024 |] in
  check_bool "1-D rejected" true
    (Codegen.Operand_staging.plan m ~src ~dst:src ~byte_width:4 = None)

(* {1 Conversion planning} *)

let test_conversion_classification () =
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let p = Codegen.Conversion.plan m ~src:l ~dst:l ~byte_width:4 in
  Alcotest.(check string) "no-op" "no-op" (Codegen.Conversion.mechanism_name p.mechanism);
  (* Register permutation: same lanes/warps, registers reordered. *)
  let reg_perm =
    (* Same as l but with the two register bits swapped: swap dim0/dim1
       per-thread tiles. *)
    Layout.make ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
      ~bases:
        (List.map
           (fun (d, bits) ->
             let images = List.init bits (Layout.basis l d) in
             (d, if d = Dims.register then List.rev images else images))
           (Layout.in_dims l))
  in
  let p2 = Codegen.Conversion.plan m ~src:l ~dst:reg_perm ~byte_width:4 in
  Alcotest.(check string) "register permutation" "register permutation"
    (Codegen.Conversion.mechanism_name p2.mechanism);
  (* Warp columns differ: shared memory. *)
  let src = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let dst = blocked ~warps:[| 1; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let p3 = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  Alcotest.(check string) "shared memory" "shared memory"
    (Codegen.Conversion.mechanism_name p3.mechanism);
  (* Same warps, different lanes, no broadcast: warp shuffle. *)
  let dst2 = blocked ~spt:[| 1; 4 |] ~tpw:[| 16; 2 |] [| 16; 16 |] in
  let src2 = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let p4 = Codegen.Conversion.plan m ~src:src2 ~dst:dst2 ~byte_width:4 in
  Alcotest.(check string) "warp shuffle" "warp shuffle"
    (Codegen.Conversion.mechanism_name p4.mechanism)

let test_conversion_execute_all_paths () =
  let check_path src dst =
    let p = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
    let d = Gpusim.Dist.init src ~f:(fun i -> i * 13 + 1) in
    let d' = run_plan p d in
    check_bool
      (Codegen.Conversion.mechanism_name p.mechanism)
      true
      (Gpusim.Dist.consistent_with d' ~f:(fun i -> i * 13 + 1))
  in
  let a = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let b = blocked ~warps:[| 1; 2 |] ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 16; 16 |] in
  check_path a a;
  check_path a b;
  check_path b a;
  let mma = Mma.output ~bitwidth:32 ~warps:[| 2; 1 |] ~shape:[| 16; 16 |] () in
  check_path a mma;
  check_path mma b

let test_conversion_cost_ordering () =
  (* No-op < register permute < shuffle < shared memory, on one warp. *)
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let shuffle_dst = blocked ~spt:[| 1; 4 |] ~tpw:[| 16; 2 |] [| 16; 16 |] in
  let cost src dst =
    let p = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
    Gpusim.Cost.estimate m (Codegen.Conversion.cost m p)
  in
  let noop = cost l l in
  let shfl = cost l shuffle_dst in
  let src_w = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let dst_w = blocked ~warps:[| 1; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let smem = cost src_w dst_w in
  check_bool "no-op free" true (noop = 0.);
  check_bool (Printf.sprintf "shuffle (%f) < shared (%f)" shfl smem) true (shfl < smem)

(* {1 Gather} *)

let test_gather_plan () =
  (* Gather along dim0 with one warp: stays in the warp. *)
  let l = blocked ~spt:[| 2; 1 |] ~tpw:[| 8; 4 |] [| 16; 4 |] in
  (match Codegen.Gather.plan l ~axis:0 with
  | Codegen.Gather.Warp_shuffle { rounds; _ } -> check_int "rounds = lanes on axis" 8 rounds
  | Shared_fallback -> Alcotest.fail "should stay in warp");
  (* With warps split along the axis, fall back. *)
  let l2 = blocked ~warps:[| 2; 1 |] ~spt:[| 1; 1 |] ~tpw:[| 8; 4 |] [| 16; 4 |] in
  match Codegen.Gather.plan l2 ~axis:0 with
  | Codegen.Gather.Warp_shuffle _ -> Alcotest.fail "warps own the axis: must fall back"
  | Shared_fallback -> ()

let test_gather_execute () =
  let l = blocked ~spt:[| 2; 1 |] ~tpw:[| 8; 4 |] [| 16; 4 |] in
  (* index[i][j] = (i + 3) mod 16 : a rotation along the axis. *)
  let rows = 16 and cols = 4 in
  ignore cols;
  let src = Gpusim.Dist.init l ~f:(fun v -> v * 2) in
  let index =
    Gpusim.Dist.init l ~f:(fun v ->
        let coords = Layout.unflatten_value (Layout.out_dims l) v in
        (List.assoc (Dims.dim 0) coords + 3) mod rows)
  in
  let out = Codegen.Gather.execute ~src ~index ~axis:0 in
  let expected v =
    let dims = Layout.out_dims l in
    let coords = Layout.unflatten_value dims v in
    let i = List.assoc (Dims.dim 0) coords in
    let coords' =
      List.map (fun (d, c) -> (d, if d = Dims.dim 0 then (i + 3) mod rows else c)) coords
    in
    Layout.flatten_value dims coords' * 2
  in
  check_bool "gathered" true (Gpusim.Dist.consistent_with out ~f:expected)

(* {1 Properties} *)

let arb_layout_pair_same_warp =
  (* Random pairs of single-warp blocked/mma layouts over a 16x16 or
     32x32 tensor: every conversion stays within the warp. *)
  let gen =
    QCheck.Gen.(
      let* size = oneofl [ 16; 32 ] in
      let layout_gen =
        oneof
          [
            (let* spt1 = oneofl [ 1; 2; 4 ] in
             let* ord = oneofl [ [| 1; 0 |]; [| 0; 1 |] ] in
             let spt = if ord.(0) = 1 then [| 1; spt1 |] else [| spt1; 1 |] in
             let tpw = if ord.(0) = 1 then [| 4; 8 |] else [| 8; 4 |] in
             return
               (Blocked.make
                  {
                    shape = [| size; size |];
                    size_per_thread = spt;
                    threads_per_warp = tpw;
                    warps_per_cta = [| 1; 1 |];
                    order = ord;
                  }));
            return (Mma.output ~bitwidth:32 ~warps:[| 1; 1 |] ~shape:[| size; size |] ());
            return (Mma.output ~bitwidth:16 ~warps:[| 1; 1 |] ~shape:[| size; size |] ());
          ]
      in
      let* a = layout_gen and* b = layout_gen in
      return (a, b))
  in
  QCheck.make gen ~print:(fun (a, b) -> Layout.to_string a ^ "\n->\n" ^ Layout.to_string b)

let prop_shuffle_moves_data =
  QCheck.Test.make ~name:"shuffle plans move every element correctly" ~count:100
    arb_layout_pair_same_warp (fun (src, dst) ->
      match Codegen.Shuffle.plan ~src ~dst ~byte_width:4 with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
          let d = Gpusim.Dist.init src ~f:(fun i -> i lxor 0x55) in
          let d' = run_shuffle p d in
          Gpusim.Dist.consistent_with d' ~f:(fun i -> i lxor 0x55))

let prop_conversion_execute =
  QCheck.Test.make ~name:"conversion execute is correct on all paths" ~count:100
    arb_layout_pair_same_warp (fun (src, dst) ->
      let p = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
      let d = Gpusim.Dist.init src ~f:(fun i -> i + 7) in
      Gpusim.Dist.consistent_with (run_plan p d) ~f:(fun i -> i + 7))

let prop_swizzle_prediction_matches_simulation =
  QCheck.Test.make ~name:"Lemma 9.4: predicted wavefronts = simulated" ~count:60
    arb_layout_pair_same_warp (fun (src, dst) ->
      let byte_width = 4 in
      let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width in
      let check dist predicted =
        let total, insts =
          Codegen.Swizzle_opt.wavefronts m ~mem:s.Codegen.Swizzle_opt.mem ~dist
            ~byte_width ~vec:s.Codegen.Swizzle_opt.vec
        in
        total = insts * predicted
      in
      check src s.Codegen.Swizzle_opt.store_wavefronts
      && check dst s.Codegen.Swizzle_opt.load_wavefronts)

let prop_swizzle_optimality_sampled =
  (* Lemma 9.6 evidence: no randomly sampled invertible memory layout
     beats the greedy optimal's total wavefronts at the same
     vectorization. *)
  QCheck.Test.make ~name:"no sampled memory layout beats the optimal swizzle" ~count:25
    (QCheck.pair arb_layout_pair_same_warp (QCheck.make QCheck.Gen.(list_repeat 8 (int_bound 10000))))
    (fun ((src, dst), seeds) ->
      let byte_width = 4 in
      let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width in
      let measure mem =
        try
          Some
            (fst
               (Codegen.Swizzle_opt.wavefronts m ~mem ~dist:src ~byte_width
                  ~vec:s.Codegen.Swizzle_opt.vec)
            + fst
                (Codegen.Swizzle_opt.wavefronts m ~mem ~dist:dst ~byte_width
                   ~vec:s.Codegen.Swizzle_opt.vec))
        with Invalid_argument _ -> None
      in
      let opt = Option.get (measure s.Codegen.Swizzle_opt.mem) in
      let d = Layout.total_out_bits (Layout.flatten_outs src) in
      let shape =
        Array.of_list (List.rev_map (fun (_, b) -> 1 lsl b) (Layout.out_dims src))
      in
      (* Random candidate: keep the optimal's vec bits (for comparable
         vectorization) and permute the remaining columns randomly. *)
      List.for_all
        (fun seed ->
          let rest =
            List.filter
              (fun c -> not (List.mem c s.Codegen.Swizzle_opt.vec))
              (List.init d (fun k -> 1 lsl k)
              |> List.filter (fun u ->
                     F2.Subspace.independent_from s.Codegen.Swizzle_opt.vec u))
          in
          let shuffled =
            List.mapi (fun i c -> ((Hashtbl.hash (seed + (i * 31)), i), c)) rest
            |> List.sort compare |> List.map snd
          in
          let cols = s.Codegen.Swizzle_opt.vec @ shuffled in
          if F2.Subspace.dim cols < d then true
          else
            let mem = Shared.of_basis_columns ~shape cols in
            match measure mem with Some w -> w >= opt | None -> true)
        seeds)

let prop_swizzle_never_worse_than_row_major =
  QCheck.Test.make ~name:"optimal swizzle <= unswizzled wavefronts" ~count:60
    arb_layout_pair_same_warp (fun (src, dst) ->
      let byte_width = 4 in
      let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width in
      let shape =
        Array.of_list (List.map (fun (_, b) -> 1 lsl b) (List.rev (Layout.out_dims src)))
      in
      let naive_mem = Shared.row_major ~shape in
      let measure mem vec dist =
        fst (Codegen.Swizzle_opt.wavefronts m ~mem ~dist ~byte_width ~vec)
      in
      let opt =
        measure s.Codegen.Swizzle_opt.mem s.Codegen.Swizzle_opt.vec src
        + measure s.Codegen.Swizzle_opt.mem s.Codegen.Swizzle_opt.vec dst
      in
      let naive = measure naive_mem [] src + measure naive_mem [] dst in
      (* The optimal swizzle may use wider accesses, so compare total
         wavefronts (transaction count already reflects width). *)
      opt <= naive)

(* Single-warp blocked pairs of 16 or 64 lanes over an 8x8 to 32x32
   tensor.  A tensor smaller than the lanes' coverage leaves lane
   columns zero (broadcast). *)
let gen_pair_16_64_lanes =
  QCheck.Gen.(
    let* size = oneofl [ 8; 16; 32 ] in
    let* tpws = oneofl [ [ [| 4; 4 |]; [| 2; 8 |]; [| 8; 2 |] ]; [ [| 8; 8 |]; [| 4; 16 |]; [| 16; 4 |] ] ] in
    let layout_gen =
      let* tpw = oneofl tpws and* spt1 = oneofl [ 1; 2; 4 ] in
      let* ord = oneofl [ [| 1; 0 |]; [| 0; 1 |] ] in
      let spt = if ord.(0) = 1 then [| 1; spt1 |] else [| spt1; 1 |] in
      return
        (Blocked.make
           {
             shape = [| size; size |];
             size_per_thread = spt;
             threads_per_warp = tpw;
             warps_per_cta = [| 1; 1 |];
             order = ord;
           })
    in
    pair layout_gen layout_gen)

let gh200_16_banks = { m with Gpusim.Machine.name = "GH200/16 banks"; num_banks = 16 }

(* The rank rule ([Swizzle_opt.wavefronts]) equals its per-element
   oracle (test/swizzle_oracle.ml) on every machine and a 16-bank
   variant, at 1- to 8-byte elements, over 16-, 32- and 64-lane pairs:
   on the optimal, the row-major and a column-permuted memory layout,
   for the optimal's vectorization, none, and every register column
   (often non-contiguous: both must then raise the same error). *)
let prop_wavefronts_match_oracle =
  QCheck.Test.make ~name:"rank-rule wavefronts = per-element oracle" ~count:150
    (QCheck.make
       ~print:(fun (machine, byte_width, (a, b), seed) ->
         Printf.sprintf "%s, %d-byte elements, seed %d\n%s\n->\n%s"
           machine.Gpusim.Machine.name byte_width seed (Layout.to_string a)
           (Layout.to_string b))
       QCheck.Gen.(
         quad (oneofl (gh200_16_banks :: Gpusim.Machine.all_with_extras)) (oneofl [ 1; 2; 4; 8 ])
           (oneof [ QCheck.gen arb_layout_pair_same_warp; gen_pair_16_64_lanes ])
           (int_bound 10000)))
    (fun (machine, byte_width, (src, dst), seed) ->
      let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width in
      let shape =
        Array.of_list (List.map (fun (_, b) -> 1 lsl b) (List.rev (Layout.out_dims src)))
      in
      let d = Layout.total_out_bits (Layout.flatten_outs src) in
      let permuted =
        List.init d (fun k -> 1 lsl k)
        |> List.mapi (fun i c -> (Hashtbl.hash (seed + (i * 31)), c))
        |> List.sort compare |> List.map snd
        |> Shared.of_basis_columns ~shape
      in
      let run f ~mem ~dist ~vec =
        match f machine ~mem ~dist ~byte_width ~vec with
        | r -> Ok r
        | exception Invalid_argument msg -> Error msg
      in
      List.for_all
        (fun mem ->
          List.for_all
            (fun dist ->
              List.for_all
                (fun vec ->
                  run Codegen.Swizzle_opt.wavefronts ~mem ~dist ~vec
                  = run Swizzle_oracle.simulate_wavefronts ~mem ~dist ~vec)
                [
                  s.Codegen.Swizzle_opt.vec;
                  [];
                  List.filter (fun c -> c <> 0) (Layout.flat_columns dist Dims.register);
                ])
            [ src; dst ])
        [ s.Codegen.Swizzle_opt.mem; Shared.row_major ~shape; permuted ])

(* Pinned counts of the rank rule where the phase geometry departs from
   a 32-lane warp, each checked against the oracle as well. *)
let check_wavefronts ?(vec_regs = max_int) name machine ~src ~byte_width ~expected =
  let mem =
    Shared.row_major
      ~shape:(Array.of_list (List.rev_map (fun (_, b) -> 1 lsl b) (Layout.out_dims src)))
  in
  let vec = List.filteri (fun i _ -> i < vec_regs) (Layout.flat_columns src Dims.register) in
  let rule = Codegen.Swizzle_opt.wavefronts machine ~mem ~dist:src ~byte_width ~vec in
  Alcotest.(check (pair int int)) (name ^ ": rule") expected rule;
  Alcotest.(check (pair int int))
    (name ^ ": oracle") expected
    (Swizzle_oracle.simulate_wavefronts machine ~mem ~dist:src ~byte_width ~vec)

let test_wavefronts_64_lanes () =
  (* 64 lanes x 16 bytes = 1024 bytes: eight conflict-free phases. *)
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 2; 32 |] [| 2; 128 |] in
  check_wavefronts "64-lane 16-byte" Gpusim.Machine.mi250 ~src ~byte_width:4 ~expected:(8, 1)

let test_wavefronts_16_lanes () =
  (* 16 lanes x 8 bytes = 128 bytes: one phase, one wavefront. *)
  let src = blocked ~spt:[| 1; 2 |] ~tpw:[| 1; 16 |] [| 1; 32 |] in
  check_wavefronts "16-lane 8-byte" Gpusim.Machine.pvc ~src ~byte_width:4 ~expected:(1, 1);
  (* Lane bit 3 moves a row, 32 words: both rows hit the same banks, so
     each of the two instructions takes two wavefronts. *)
  let src = blocked ~spt:[| 1; 2 |] ~tpw:[| 2; 8 |] [| 2; 32 |] in
  check_wavefronts ~vec_regs:1 "16-lane 8-byte, rows a bank period apart" Gpusim.Machine.pvc
    ~src ~byte_width:4 ~expected:(4, 2)

let test_wavefronts_wider_than_bank_row () =
  (* On 16 banks of 4 bytes a 128-byte lane access (16 x 8 bytes) is a
     phase of its own and covers every bank twice: 32 phases of two
     wavefronts. *)
  let src = blocked ~spt:[| 1; 16 |] ~tpw:[| 32; 1 |] [| 32; 16 |] in
  check_wavefronts "128-byte lane access, 16 banks" gh200_16_banks ~src ~byte_width:8
    ~expected:(64, 1)

let test_wavefronts_rejects_non_pow2_banks () =
  let machine = { m with Gpusim.Machine.num_banks = 24 } in
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let mem = Shared.row_major ~shape:[| 32; 32 |] in
  match Codegen.Swizzle_opt.wavefronts machine ~mem ~dist:src ~byte_width:4 ~vec:[] with
  | _ -> Alcotest.fail "24 banks must be rejected"
  | exception Invalid_argument e ->
      Alcotest.(check string)
        "reason" "Banks.linear_wavefronts: num_banks = 24 is not a power of two" e

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "codegen"
    (Shuffle_support.maybe_shuffle
    [
      ( "simd",
        [
          Alcotest.test_case "vec tile" `Quick test_vec_tile;
          Alcotest.test_case "ldmatrix match" `Quick test_ldmatrix_match;
          Alcotest.test_case "max vector bits" `Quick test_max_vector_bits;
          Alcotest.test_case "generalized vectorization" `Quick test_vectorizable_register_bits;
        ] );
      ( "shuffle",
        [
          Alcotest.test_case "small exchange" `Quick test_shuffle_small;
          Alcotest.test_case "mma to blocked" `Quick test_shuffle_mma_to_blocked;
          Alcotest.test_case "rejects cross-warp" `Quick test_shuffle_rejects_cross_warp;
          Alcotest.test_case "identity is trivial" `Quick test_shuffle_identity_is_trivial;
          Alcotest.test_case "rejects 8x4 to 4x8" `Quick test_shuffle_rejects_other_shape;
        ] );
      ( "swizzle",
        [
          Alcotest.test_case "transpose f32 conflict-free" `Quick test_swizzle_transpose_f32;
          Alcotest.test_case "beats unswizzled" `Quick test_swizzle_beats_unswizzled;
          Alcotest.test_case "execute correct" `Quick test_swizzle_execute_correct;
          Alcotest.test_case "rejects 8x4 to 4x8" `Quick test_swizzle_rejects_other_shape;
          Alcotest.test_case "64 lanes, 8 phases" `Quick test_wavefronts_64_lanes;
          Alcotest.test_case "16 lanes, one phase" `Quick test_wavefronts_16_lanes;
          Alcotest.test_case "lane access wider than the banks" `Quick
            test_wavefronts_wider_than_bank_row;
          Alcotest.test_case "rejects 24 banks" `Quick test_wavefronts_rejects_non_pow2_banks;
        ] );
      ( "staging",
        [
          Alcotest.test_case "ldmatrix path" `Quick test_operand_staging_ldmatrix;
          Alcotest.test_case "rejects 1-D" `Quick test_operand_staging_rejects_1d;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "classification" `Quick test_conversion_classification;
          Alcotest.test_case "execute all paths" `Quick test_conversion_execute_all_paths;
          Alcotest.test_case "cost ordering" `Quick test_conversion_cost_ordering;
        ] );
      ( "gather",
        [
          Alcotest.test_case "plan" `Quick test_gather_plan;
          Alcotest.test_case "execute" `Quick test_gather_execute;
        ] );
      ( "properties",
        q
          [
            prop_shuffle_moves_data;
            prop_conversion_execute;
            prop_swizzle_prediction_matches_simulation;
            prop_swizzle_never_worse_than_row_major;
            prop_swizzle_optimality_sampled;
            prop_wavefronts_match_oracle;
          ] );
    ])
