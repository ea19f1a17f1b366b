(* Tests for the Triton layout-family constructors: Blocked, MMA,
   Sliced and Shared (swizzled) layouts. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Blocked} *)

let test_blocked_replication () =
  (* Tile (2x2 regs, 4x8 threads, 2x1 warps) covers 16x16; a 32x16
     tensor needs 2x the registers. *)
  let l =
    Blocked.make
      {
        shape = [| 32; 16 |];
        size_per_thread = [| 2; 2 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 2; 1 |];
        order = [| 1; 0 |];
      }
  in
  check_int "registers doubled" 8 (Layout.in_size l Dims.register);
  check_bool "still distributed" true (Layout.is_distributed l);
  check_bool "bijective" true (Layout.is_invertible l)

let test_blocked_broadcast () =
  (* Tile larger than the tensor: an 8x8 tensor on a 16x16 tile
     broadcasts threads and warps. *)
  let l =
    Blocked.make
      {
        shape = [| 8; 8 |];
        size_per_thread = [| 2; 2 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 2; 1 |];
        order = [| 1; 0 |];
      }
  in
  check_int "lanes keep nominal size" 32 (Layout.in_size l Dims.lane);
  check_bool "surjective" true (Layout.is_surjective l);
  check_bool "not injective" false (Layout.is_injective l);
  let masks = Layout.free_variable_masks l in
  check_bool "lane broadcast bits" true (List.assoc Dims.lane masks <> 0);
  check_bool "warp broadcast bits" true (List.assoc Dims.warp masks <> 0)

let test_blocked_default () =
  let l = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 128; 64 |] in
  check_int "full lanes" 32 (Layout.in_size l Dims.lane);
  check_int "full warps" 4 (Layout.in_size l Dims.warp);
  check_bool "distributed" true (Layout.is_distributed l);
  check_int "contiguous" 4 (Layout.num_consecutive l ~in_dim:Dims.register);
  (* Total points = tensor size. *)
  check_int "covers tensor" (128 * 64)
    (Layout.in_size l Dims.register * 32 * 4)

let test_blocked_default_small () =
  (* A tensor smaller than a warp: extra lanes broadcast. *)
  let l = Blocked.default ~warp_size:32 ~num_warps:2 [| 4; 4 |] in
  check_int "full lanes" 32 (Layout.in_size l Dims.lane);
  check_int "full warps" 2 (Layout.in_size l Dims.warp);
  check_bool "surjective" true (Layout.is_surjective l)

(* {1 MMA} *)

let test_mma_output_tile () =
  (* f32 accumulator: the m16n8 tile with 4 values per thread. *)
  let t = Mma.output_tile ~bitwidth:32 in
  check_int "regs" 4 (Layout.in_size t Dims.register);
  check_int "lanes" 32 (Layout.in_size t Dims.lane);
  check_int "rows" 16 (Layout.out_size t (Dims.dim 0));
  check_int "cols" 8 (Layout.out_size t (Dims.dim 1));
  check_bool "distributed" true (Layout.is_distributed t);
  check_bool "bijective" true (Layout.is_invertible t)

let test_mma_operand_tiles () =
  (* f16 operands: lhs is 16x16 with 8 values/thread, rhs its transpose
     with half the registers (appendix, Prop 9.2). *)
  let lhs = Mma.operand_tile ~idx:0 ~bitwidth:16 in
  check_int "lhs regs" 8 (Layout.in_size lhs Dims.register);
  check_int "lhs rows" 16 (Layout.out_size lhs (Dims.dim 0));
  check_int "lhs cols" 16 (Layout.out_size lhs (Dims.dim 1));
  let rhs = Mma.operand_tile ~idx:1 ~bitwidth:16 in
  check_int "rhs regs" 4 (Layout.in_size rhs Dims.register);
  check_bool "lhs distributed" true (Layout.is_distributed lhs);
  check_bool "rhs distributed" true (Layout.is_distributed rhs)

let test_mma_output_distribution () =
  let l = Mma.output ~bitwidth:32 ~warps:[| 2; 2 |] ~shape:[| 64; 64 |] () in
  check_int "warps" 4 (Layout.in_size l Dims.warp);
  check_bool "distributed" true (Layout.is_distributed l);
  check_bool "bijective" true (Layout.is_invertible l);
  (* 64*64 elements / (32 lanes * 4 warps) = 32 registers. *)
  check_int "regs" 32 (Layout.in_size l Dims.register)

let test_mma_operand_broadcast () =
  (* lhs operand of a dot with warps over N: those warp bits broadcast. *)
  let l = Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 2; 2 |] ~shape:[| 32; 32 |] () in
  check_int "warps" 4 (Layout.in_size l Dims.warp);
  check_bool "surjective" true (Layout.is_surjective l);
  let masks = Layout.free_variable_masks l in
  check_bool "warp broadcast" true (List.assoc Dims.warp masks <> 0);
  (* The warp bit along M is not free; the one along N is. *)
  check_int "one free warp bit" 1 (F2.Bitvec.popcount (List.assoc Dims.warp masks))

let test_wgmma_tile () =
  let t = Mma.wgmma_output_tile ~bitwidth:32 in
  check_int "warp-group" 4 (Layout.in_size t Dims.warp);
  check_int "rows" 64 (Layout.out_size t (Dims.dim 0));
  check_bool "distributed" true (Layout.is_distributed t)

let test_xmx_tile () =
  (* Intel's dpas tile: 8x16 on a 16-lane subgroup. *)
  let t = Mma.xmx_output_tile () in
  check_int "lanes" 16 (Layout.in_size t Dims.lane);
  check_int "regs" 8 (Layout.in_size t Dims.register);
  check_int "rows" 8 (Layout.out_size t (Dims.dim 0));
  check_int "cols" 16 (Layout.out_size t (Dims.dim 1));
  check_bool "bijective" true (Layout.is_invertible t);
  (* Distributing it is the ordinary generic machinery. *)
  let l = Mma.xmx_output ~warps:[| 4; 1 |] ~shape:[| 64; 64 |] () in
  check_bool "distributed" true (Layout.is_distributed l)

let test_mfma_tiles () =
  let t16 = Mma.mfma_output_tile ~m:16 in
  check_int "lanes" 64 (Layout.in_size t16 Dims.lane);
  check_int "16x16" (16 * 16) (Layout.out_size t16 (Dims.dim 0) * Layout.out_size t16 (Dims.dim 1));
  check_bool "bijective" true (Layout.is_invertible t16);
  let t32 = Mma.mfma_output_tile ~m:32 in
  check_int "32x32" (32 * 32) (Layout.out_size t32 (Dims.dim 0) * Layout.out_size t32 (Dims.dim 1));
  check_bool "distributed" true (Layout.is_distributed t32)

(* {1 Shared memory layouts} *)

let test_row_major () =
  let l = Shared.row_major ~shape:[| 4; 8 |] in
  check_bool "memory layout" true (Layout.is_memory l);
  (* Offset 10 = row 1, col 2. *)
  let out = Layout.apply l [ (Dims.offset, 10) ] in
  check_int "row" 1 (List.assoc (Dims.dim 0) out);
  check_int "col" 2 (List.assoc (Dims.dim 1) out)

let test_column_major () =
  let l = Shared.column_major ~shape:[| 4; 8 |] in
  let out = Layout.apply l [ (Dims.offset, 10) ] in
  (* Offset 10 = col 2 (10 / 4), row 2 (10 mod 4). *)
  check_int "row" 2 (List.assoc (Dims.dim 0) out);
  check_int "col" 2 (List.assoc (Dims.dim 1) out)

let test_mma_swizzle_matches_formula () =
  (* The layout construction must agree with the raw offset formula of
     Definition 4.11 for every element. *)
  List.iter
    (fun (vec, per_phase, max_phase) ->
      let rows = 16 and cols = 32 in
      let l = Shared.mma_swizzle ~vec ~per_phase ~max_phase ~rows ~cols in
      check_bool "is memory layout (Def 4.14)" true (Layout.is_memory l);
      let li = Layout.invert l in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          let off =
            List.assoc Dims.offset
              (Layout.apply li [ (Dims.dim 0, i); (Dims.dim 1, j) ])
          in
          let expected = Shared.swizzle_offset ~vec ~per_phase ~max_phase ~cols i j in
          if off <> expected then
            Alcotest.failf "vec=%d pp=%d mp=%d (%d,%d): got %d want %d" vec per_phase
              max_phase i j off expected
        done
      done)
    [ (1, 1, 1); (2, 1, 8); (4, 2, 4); (8, 1, 4); (1, 4, 4); (4, 4, 1) ]

let test_swizzle_identity_case () =
  (* vec=1, per_phase=1, max_phase=1 is the unswizzled row-major layout. *)
  let l = Shared.mma_swizzle ~vec:1 ~per_phase:1 ~max_phase:1 ~rows:8 ~cols:8 in
  check_bool "unswizzled" true (Layout.equal l (Shared.row_major ~shape:[| 8; 8 |]))

let test_of_basis_columns () =
  let l = Shared.of_basis_columns ~shape:[| 4; 8 |] [ 1; 2; 4; 8; 16 ] in
  check_bool "row major" true (Layout.equal l (Shared.row_major ~shape:[| 4; 8 |]))

(* {1 Properties} *)

let arb_swizzle =
  let gen =
    QCheck.Gen.(
      let pow2 hi = map (fun k -> 1 lsl k) (int_range 0 hi) in
      let* vec = pow2 3 and* per_phase = pow2 2 and* max_phase = pow2 3 in
      return (vec, per_phase, max_phase))
  in
  QCheck.make gen ~print:(fun (v, p, m) -> Printf.sprintf "vec=%d per_phase=%d max_phase=%d" v p m)

let prop_swizzle_memory_layout =
  QCheck.Test.make ~name:"mma swizzles are memory layouts (Thm 4.13)" ~count:100 arb_swizzle
    (fun (vec, per_phase, max_phase) ->
      let l = Shared.mma_swizzle ~vec ~per_phase ~max_phase ~rows:32 ~cols:64 in
      Layout.is_memory l)

let prop_swizzle_bijective_offsets =
  QCheck.Test.make ~name:"swizzle offsets are a permutation" ~count:50 arb_swizzle
    (fun (vec, per_phase, max_phase) ->
      let rows = 16 and cols = 32 in
      let seen = Hashtbl.create 512 in
      let ok = ref true in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          let o = Shared.swizzle_offset ~vec ~per_phase ~max_phase ~cols i j in
          if o < 0 || o >= rows * cols || Hashtbl.mem seen o then ok := false
          else Hashtbl.add seen o ()
        done
      done;
      !ok)

let arb_mma =
  let gen =
    QCheck.Gen.(
      let* bitwidth = oneofl [ 8; 16; 32 ] in
      let* wm = oneofl [ 1; 2 ] and* wn = oneofl [ 1; 2 ] in
      let* m = oneofl [ 32; 64 ] and* n = oneofl [ 32; 64 ] in
      return (bitwidth, [| wm; wn |], [| m; n |]))
  in
  QCheck.make gen ~print:(fun (b, w, s) ->
      Printf.sprintf "bw=%d warps=[%d,%d] shape=[%d,%d]" b w.(0) w.(1) s.(0) s.(1))

let prop_mma_distributed =
  QCheck.Test.make ~name:"mma outputs are distributed (Prop 4.7)" ~count:100 arb_mma
    (fun (bitwidth, warps, shape) ->
      Layout.is_distributed (Mma.output ~bitwidth ~warps ~shape ()))

let prop_mma_operand_surjective =
  QCheck.Test.make ~name:"mma operands are surjective" ~count:100 arb_mma
    (fun (bitwidth, warps, shape) ->
      Layout.is_surjective (Mma.operand ~idx:0 ~bitwidth ~warps ~shape ())
      && Layout.is_surjective (Mma.operand ~idx:1 ~bitwidth ~warps ~shape ()))

(* {1 Cover = fold-of-products oracle} *)

(* Bases the constructors start from: nothing, or any MMA-family tile. *)
let gen_base =
  QCheck.Gen.(
    let bitwidths = [ 1; 2; 4; 8; 16; 32 ] in
    oneof
      [
        return Layout.empty;
        map (fun bitwidth -> Mma.output_tile ~bitwidth) (oneofl bitwidths);
        map (fun bitwidth -> Mma.operand_tile ~idx:1 ~bitwidth) (oneofl bitwidths);
        map (fun bitwidth -> Mma.wgmma_output_tile ~bitwidth) (oneofl bitwidths);
        oneofl [ Mma.mfma_output_tile ~m:16; Mma.mfma_output_tile ~m:32; Mma.xmx_output_tile () ];
      ])

(* Random levels over rank 1-3: hardware dimensions may repeat, and per
   dimension bits range from 0 (zero-bit levels) past the shape (zero
   columns from over-allocation). *)
let arb_cover =
  let gen =
    QCheck.Gen.(
      let* base = gen_base in
      let* rank = int_range 1 3 in
      let* shape_bits = array_repeat rank (int_bound 6) in
      let* order = map Array.of_list (shuffle_l (List.init rank Fun.id)) in
      let* levels =
        list_size (int_bound 4)
          (pair
             (oneofl [ Dims.register; Dims.lane; Dims.warp; Dims.block ])
             (array_repeat rank (int_bound 4)))
      in
      return (base, levels, shape_bits, order))
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  QCheck.make gen ~print:(fun (base, levels, shape_bits, order) ->
      Printf.sprintf "base:\n%s\nlevels: %s\nshape_bits: [%s] order: [%s]"
        (Layout.to_string base)
        (String.concat "; " (List.map (fun (hw, b) -> Printf.sprintf "%s [%s]" hw (ints b)) levels))
        (ints shape_bits) (ints order))

let prop_cover_matches_oracle =
  QCheck.Test.make ~name:"cover = fold of 1-D products" ~count:500 arb_cover
    (fun (base, levels, shape_bits, order) ->
      Layout.equal
        (Build.cover ~base ~levels ~shape_bits ~order)
        (Layout_oracle.cover ~base ~levels ~shape_bits ~order))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "constructors"
    [
      ( "blocked",
        [
          Alcotest.test_case "register replication" `Quick test_blocked_replication;
          Alcotest.test_case "broadcast when tile too large" `Quick test_blocked_broadcast;
          Alcotest.test_case "default encoding" `Quick test_blocked_default;
          Alcotest.test_case "default on small tensor" `Quick test_blocked_default_small;
        ] );
      ( "mma",
        [
          Alcotest.test_case "output tile m16n8" `Quick test_mma_output_tile;
          Alcotest.test_case "operand tiles" `Quick test_mma_operand_tiles;
          Alcotest.test_case "output distribution" `Quick test_mma_output_distribution;
          Alcotest.test_case "operand warp broadcast" `Quick test_mma_operand_broadcast;
          Alcotest.test_case "wgmma tile" `Quick test_wgmma_tile;
          Alcotest.test_case "mfma tiles" `Quick test_mfma_tiles;
          Alcotest.test_case "xmx tile (out-of-tree backend)" `Quick test_xmx_tile;
        ] );
      ( "shared",
        [
          Alcotest.test_case "row major" `Quick test_row_major;
          Alcotest.test_case "column major" `Quick test_column_major;
          Alcotest.test_case "swizzle matches Def 4.11" `Quick test_mma_swizzle_matches_formula;
          Alcotest.test_case "identity swizzle" `Quick test_swizzle_identity_case;
          Alcotest.test_case "of basis columns" `Quick test_of_basis_columns;
        ] );
      ( "properties",
        q
          [
            prop_swizzle_memory_layout;
            prop_swizzle_bijective_offsets;
            prop_mma_distributed;
            prop_mma_operand_surjective;
          ] );
      ("oracle", q [ prop_cover_matches_oracle ]);
    ]
