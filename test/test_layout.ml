(* Tests for the core Layout module, anchored on the paper's running
   example (Section 4.1, Table 1). *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Layout A of Figure 1: a 16x16 tensor tiled by 2x2 registers, 4x8
   threads, 2x1 warps, fastest dimension dim1. *)
let layout_a =
  Blocked.make
    {
      shape = [| 16; 16 |];
      size_per_thread = [| 2; 2 |];
      threads_per_warp = [| 4; 8 |];
      warps_per_cta = [| 2; 1 |];
      order = [| 1; 0 |];
    }

let apply_a reg thr wrp =
  let out = Layout.apply layout_a [ (Dims.register, reg); (Dims.lane, thr); (Dims.warp, wrp) ] in
  (List.assoc (Dims.dim 0) out, List.assoc (Dims.dim 1) out)

let test_table1 () =
  (* Every row of Table 1: location -> (register, thread, warp). *)
  let cases =
    [
      ((0, 0), (0, 0, 0));
      ((0, 1), (1, 0, 0));
      ((0, 2), (0, 1, 0));
      ((0, 3), (1, 1, 0));
      ((1, 0), (2, 0, 0));
      ((1, 1), (3, 0, 0));
      ((2, 2), (0, 9, 0));
      ((2, 3), (1, 9, 0));
      ((3, 2), (2, 9, 0));
      ((3, 3), (3, 9, 0));
    ]
  in
  List.iter
    (fun ((i, j), (reg, thr, wrp)) ->
      let i', j' = apply_a reg thr wrp in
      Alcotest.(check (pair int int))
        (Printf.sprintf "r%d t%d w%d" reg thr wrp)
        (i, j) (i', j'))
    cases

let test_layout_a_shape () =
  check_int "registers" 4 (Layout.in_size layout_a Dims.register);
  check_int "lanes" 32 (Layout.in_size layout_a Dims.lane);
  check_int "warps" 2 (Layout.in_size layout_a Dims.warp);
  check_int "dim0" 16 (Layout.out_size layout_a (Dims.dim 0));
  check_int "dim1" 16 (Layout.out_size layout_a (Dims.dim 1));
  check_bool "distributed" true (Layout.is_distributed layout_a);
  check_bool "invertible" true (Layout.is_invertible layout_a)

let test_matrix_matches_paper () =
  (* The flattened matrix must be exactly the 8x8 matrix A of
     Section 4.1 (j in the low output bits, registers in the low input
     bits). *)
  let m = Layout.to_matrix layout_a in
  let expected =
    [| 0b00000001; 0b00010000; 0b00000010; 0b00000100; 0b00001000; 0b00100000;
       0b01000000; 0b10000000 |]
  in
  Alcotest.(check (array int)) "columns" expected (F2.Bitmatrix.columns m)

let test_identity_zeros () =
  let idl = Layout.identity1d 3 ~in_dim:Dims.register ~out_dim:(Dims.dim 0) in
  check_int "apply" 5 (List.assoc (Dims.dim 0) (Layout.apply idl [ (Dims.register, 5) ]));
  check_bool "invertible" true (Layout.is_invertible idl);
  let z = Layout.zeros1d 2 ~in_dim:Dims.lane ~out_dim:(Dims.dim 0) in
  check_int "zeros out bits" 0 (Layout.out_bits z (Dims.dim 0));
  check_int "zeros apply" 0 (List.assoc (Dims.dim 0) (Layout.apply z [ (Dims.lane, 3) ]))

let test_mul_shifts_shared_dims () =
  let a = Layout.identity1d 2 ~in_dim:Dims.register ~out_dim:(Dims.dim 0) in
  let b = Layout.identity1d 1 ~in_dim:Dims.lane ~out_dim:(Dims.dim 0) in
  let ab = Layout.mul a b in
  check_int "dim0 bits" 3 (Layout.out_bits ab (Dims.dim 0));
  (* The lane basis vector lands above the two register bits. *)
  check_int "lane image" 4 (List.assoc (Dims.dim 0) (Layout.basis ab Dims.lane 0));
  (* Product of disjoint spaces is block-diagonal (Definition 4.3):
     registers (low input bits) hit dim0 (high output bits, since dim1
     is canonically the fastest) and lanes hit dim1. *)
  let c = Layout.identity1d 2 ~in_dim:Dims.lane ~out_dim:(Dims.dim 1) in
  let ac = Layout.mul a c in
  Alcotest.(check (array int))
    "block diagonal columns" [| 4; 8; 1; 2 |]
    (F2.Bitmatrix.columns (Layout.to_matrix ac))

let test_compose_invert () =
  let l = layout_a in
  let li = Layout.invert l in
  let id = Layout.compose l li in
  check_bool "l o l^-1 = id" true (F2.Bitmatrix.is_identity (Layout.to_matrix id));
  let id2 = Layout.compose li l in
  check_bool "l^-1 o l = id" true (F2.Bitmatrix.is_identity (Layout.to_matrix id2))

let test_pseudo_invert () =
  (* A broadcasting layout: 2 lanes hold the same 2 elements. *)
  let l =
    Layout.make
      ~ins:[ (Dims.lane, 2) ]
      ~outs:[ (Dims.dim 0, 1) ]
      ~bases:[ (Dims.lane, [ [ (Dims.dim 0, 1) ]; [] ]) ]
  in
  check_bool "surjective" true (Layout.is_surjective l);
  check_bool "not injective" false (Layout.is_injective l);
  let li = Layout.pseudo_invert l in
  (* Minimal-Hamming-weight choice: element 1 maps back to lane 1, not
     lane 3 (the broadcast copy). *)
  check_int "preimage" 1 (List.assoc Dims.lane (Layout.apply li [ (Dims.dim 0, 1) ]))

let test_project_outs () =
  let sliced = Sliced.make layout_a ~dim:1 in
  check_bool "surjective" true (Layout.is_surjective sliced);
  check_bool "not injective" false (Layout.is_injective sliced);
  check_int "one out dim" 1 (List.length (Layout.out_dims sliced));
  (* Register bit 0 used to map to dim1: now a free (broadcast) bit. *)
  let masks = Layout.free_variable_masks sliced in
  check_bool "register has free bits" true (List.assoc Dims.register masks <> 0)

let test_sliced_compress () =
  let r = Sliced.reduction_result layout_a ~dim:1 in
  (* After summing over dim1 each thread keeps 2 registers (the two
     rows it owned). *)
  check_int "registers" 2 (Layout.in_size r Dims.register);
  check_int "out dim0" 16 (Layout.out_size r (Dims.dim 0));
  check_bool "surjective" true (Layout.is_surjective r)

let test_flatten_reshape () =
  let f = Layout.flatten_outs layout_a in
  check_int "flat bits" 8 (Layout.out_bits f Dims.flat);
  let r = Layout.reshape_outs f [ (Dims.dim 0, 4); (Dims.dim 1, 4) ] in
  check_bool "roundtrip" true (Layout.equal r layout_a);
  let fi = Layout.flatten_ins layout_a in
  check_int "flat in bits" 8 (Layout.total_in_bits fi)

let test_num_consecutive () =
  (* Layout A: registers 0,1 are contiguous along dim1 (row-major
     flattening), register 2 jumps to the next row. *)
  check_int "layout A" 2 (Layout.num_consecutive layout_a ~in_dim:Dims.register);
  (* A [512,1] tensor with 4 elements per thread along dim0: elements
     are contiguous across the dimension boundary. *)
  let skinny =
    Blocked.make
      {
        shape = [| 512; 1 |];
        size_per_thread = [| 4; 1 |];
        threads_per_warp = [| 32; 1 |];
        warps_per_cta = [| 4; 1 |];
        order = [| 0; 1 |];
      }
  in
  check_int "[512,1]" 4 (Layout.num_consecutive skinny ~in_dim:Dims.register)

let test_divide_left_layout () =
  (* A vectorization tile: 2 register bits identical onto the flattened
     output. *)
  let l = Layout.flatten_outs layout_a in
  let tile = Layout.identity1d 1 ~in_dim:Dims.register ~out_dim:Dims.flat in
  (match Layout.divide_left l tile with
  | Some q ->
      check_int "quotient regs" 1 (Layout.in_bits q Dims.register);
      check_int "quotient out" 7 (Layout.out_bits q Dims.flat)
  | None -> Alcotest.fail "tile should divide layout A");
  (* A tile the layout does not contain. *)
  let bad =
    Layout.make ~ins:[ (Dims.register, 1) ] ~outs:[ (Dims.flat, 1) ]
      ~bases:[ (Dims.register, [ [] ]) ]
  in
  check_bool "bad tile" true (Layout.divide_left l bad = None)

let test_exchange_out_names () =
  let t = Layout.exchange_out_names layout_a [ (Dims.dim 0, Dims.dim 1); (Dims.dim 1, Dims.dim 0) ] in
  let out = Layout.apply t [ (Dims.register, 1); (Dims.lane, 9) ] in
  (* Transposition: the image coordinates swap relative to layout A. *)
  let i', j' = apply_a 1 9 0 in
  check_int "dim0 swapped" j' (List.assoc (Dims.dim 0) out);
  check_int "dim1 swapped" i' (List.assoc (Dims.dim 1) out)

let test_resize_in () =
  let grown = Layout.resize_in layout_a Dims.warp 3 in
  check_int "warp bits" 3 (Layout.in_bits grown Dims.warp);
  (* New warp bits broadcast. *)
  check_int "broadcast" 0 (Layout.basis_flat grown Dims.warp 2);
  let shrunk = Layout.resize_in grown Dims.warp 1 in
  check_bool "shrink restores" true (Layout.equal shrunk layout_a)

let test_make_validation () =
  (* Construction rejects malformed inputs with Layout.Error. *)
  let expect_error f =
    match f () with
    | exception Layout.Error _ -> ()
    | _ -> Alcotest.fail "expected Layout.Error"
  in
  (* duplicate dimension *)
  expect_error (fun () ->
      Layout.make
        ~ins:[ (Dims.register, 1); (Dims.register, 1) ]
        ~outs:[ (Dims.dim 0, 2) ]
        ~bases:[ (Dims.register, [ [ (Dims.dim 0, 1) ] ]) ]);
  (* coordinate out of range *)
  expect_error (fun () ->
      Layout.make
        ~ins:[ (Dims.register, 1) ]
        ~outs:[ (Dims.dim 0, 1) ]
        ~bases:[ (Dims.register, [ [ (Dims.dim 0, 2) ] ]) ]);
  (* wrong number of basis images *)
  expect_error (fun () ->
      Layout.make
        ~ins:[ (Dims.register, 2) ]
        ~outs:[ (Dims.dim 0, 2) ]
        ~bases:[ (Dims.register, [ [ (Dims.dim 0, 1) ] ]) ]);
  (* bases for an unknown input dimension *)
  expect_error (fun () ->
      Layout.make
        ~ins:[ (Dims.register, 1) ]
        ~outs:[ (Dims.dim 0, 1) ]
        ~bases:
          [ (Dims.register, [ [ (Dims.dim 0, 1) ] ]); (Dims.lane, [ [ (Dims.dim 0, 1) ] ]) ]);
  (* apply with out-of-range index *)
  expect_error (fun () -> Layout.apply layout_a [ (Dims.register, 4) ]);
  (* compose with mismatched spaces *)
  expect_error (fun () ->
      Layout.compose layout_a (Layout.identity1d 9 ~in_dim:Dims.offset ~out_dim:Dims.register));
  (* invert of a non-invertible layout *)
  expect_error (fun () -> Layout.invert (Sliced.make layout_a ~dim:1))

let test_empty_and_trivial () =
  check_int "empty has no bits" 0 (Layout.total_in_bits Layout.empty);
  let l = Layout.mul Layout.empty layout_a in
  check_bool "empty is a unit for mul" true (Layout.equal l layout_a);
  (* zero-bit dims are preserved until dropped *)
  let z = Layout.mul layout_a (Layout.zeros1d 0 ~in_dim:Dims.block ~out_dim:(Dims.dim 0)) in
  check_bool "trivial dims removable" true
    (Layout.equal (Layout.drop_trivial_dims z) (Layout.drop_trivial_dims layout_a))

(* {1 Properties} *)

let arb_blocked =
  let gen =
    QCheck.Gen.(
      let pow2 hi = map (fun k -> 1 lsl k) (int_range 0 hi) in
      let* m = pow2 5 and* n = pow2 5 in
      let* r0 = pow2 2 and* r1 = pow2 2 in
      let* t0 = pow2 2 and* t1 = pow2 2 in
      let* w0 = pow2 1 and* w1 = pow2 1 in
      let* ord = oneofl [ [| 0; 1 |]; [| 1; 0 |] ] in
      return
        (Blocked.make
           {
             shape = [| max m (r0 * t0 * w0); max n (r1 * t1 * w1) |];
             size_per_thread = [| r0; r1 |];
             threads_per_warp = [| t0; t1 |];
             warps_per_cta = [| w0; w1 |];
             order = ord;
           }))
  in
  QCheck.make gen ~print:Layout.to_string

let prop_blocked_distributed =
  QCheck.Test.make ~name:"blocked layouts are distributed (Def 4.10)" ~count:200 arb_blocked
    (fun l -> Layout.is_distributed l)

let prop_invert_roundtrip =
  QCheck.Test.make ~name:"invert o layout = id" ~count:200 arb_blocked (fun l ->
      QCheck.assume (Layout.is_invertible l);
      F2.Bitmatrix.is_identity (Layout.to_matrix (Layout.compose (Layout.invert l) l)))

let prop_pseudo_invert_section =
  QCheck.Test.make ~name:"layout o pseudo_invert = id on image" ~count:200 arb_blocked
    (fun l ->
      let li = Layout.pseudo_invert l in
      F2.Bitmatrix.is_identity (Layout.to_matrix (Layout.compose l li)))

let prop_slice_surjective =
  QCheck.Test.make ~name:"slices stay surjective (Prop 4.8)" ~count:200 arb_blocked (fun l ->
      Layout.is_surjective (Sliced.make l ~dim:0)
      && Layout.is_surjective (Sliced.make l ~dim:1))

let prop_mul_divide =
  QCheck.Test.make ~name:"(a x b) /l a = b for disjoint layouts" ~count:200
    (QCheck.pair (QCheck.make QCheck.Gen.(int_range 1 3)) (QCheck.make QCheck.Gen.(int_range 1 3)))
    (fun (ka, kb) ->
      let a = Layout.identity1d ka ~in_dim:Dims.register ~out_dim:(Dims.dim 1) in
      let b = Layout.identity1d kb ~in_dim:Dims.lane ~out_dim:(Dims.dim 0) in
      match Layout.divide_left (Layout.mul a b) a with
      | Some q -> Layout.equivalent q b
      | None -> false)

let prop_apply_linear =
  QCheck.Test.make ~name:"apply is linear: L(u xor v) = L(u) xor L(v)" ~count:200
    (QCheck.pair arb_blocked (QCheck.make QCheck.Gen.(pair (int_bound 255) (int_bound 255))))
    (fun (l, (u, v)) ->
      let bits = Layout.total_in_bits l in
      let mask = (1 lsl bits) - 1 in
      let u = u land mask and v = v land mask in
      Layout.apply_flat l (u lxor v) = Layout.apply_flat l u lxor Layout.apply_flat l v)

(* [apply_flat l], partially applied once, answers every point exactly as
   the matrix does, and as the per-dimension [apply] on the unflattened
   point; bits above the input width select nothing. *)
let prop_apply_flat_partial =
  QCheck.Test.make ~name:"partial apply_flat = Bitmatrix.apply (to_matrix l) = apply" ~count:200
    (QCheck.pair arb_blocked (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun (l, high) ->
      let f = Layout.apply_flat l and m = Layout.to_matrix l in
      let ins = Layout.in_dims l and outs = Layout.out_dims l in
      let bits = Layout.total_in_bits l in
      List.for_all
        (fun v ->
          f v = F2.Bitmatrix.apply m v
          && f v = Layout.flatten_value outs (Layout.apply l (Layout.unflatten_value ins v))
          && f (v lor (high lsl bits)) = f v)
        (List.init (1 lsl bits) Fun.id))

(* {1 Against the former product} *)

(* Random layouts over overlapping label sets, so products share input
   and output dimensions (and carry zero-bit ones). *)
let gen_layout =
  QCheck.Gen.(
    let dims labels =
      let* picked = shuffle_l labels in
      let* n = int_bound (List.length labels) in
      let* bits = list_repeat n (int_bound 3) in
      return (List.combine (List.filteri (fun i _ -> i < n) picked) bits)
    in
    let* ins = dims [ Dims.register; Dims.lane; Dims.warp; Dims.block; "dim3"; "z" ] in
    let* outs = dims [ "dim0"; "dim1"; "dim2"; "dim10"; "dim01"; Dims.flat; "x" ] in
    let image = flatten_l (List.map (fun (o, b) -> map (fun c -> (o, c)) (int_bound ((1 lsl b) - 1))) outs) in
    let* bases = flatten_l (List.map (fun (d, b) -> map (fun imgs -> (d, imgs)) (list_repeat b image)) ins) in
    return (Layout.make ~ins ~outs ~bases))

let arb_layout_pair =
  QCheck.make
    ~print:(fun (a, b) -> Layout.to_string a ^ "\nx\n" ^ Layout.to_string b)
    QCheck.Gen.(pair gen_layout gen_layout)

let prop_mul_matches_oracle =
  QCheck.Test.make ~name:"mul = Hashtbl-merge product" ~count:500 arb_layout_pair (fun (a, b) ->
      let p = Layout.mul a b in
      Layout.in_dims p = Layout_oracle.merge_dims (Layout.in_dims a) (Layout.in_dims b)
      && Layout.out_dims p = Layout_oracle.merge_dims (Layout.out_dims a) (Layout.out_dims b)
      && Layout.equal p (Layout_oracle.mul a b))

let prop_mul_empty =
  QCheck.Test.make ~name:"mul empty l = l = mul l empty" ~count:200
    (QCheck.make ~print:Layout.to_string gen_layout)
    (fun l ->
      Layout.equal (Layout.mul Layout.empty l) l
      && Layout.equal (Layout.mul l Layout.empty) l
      && Layout.equal (Layout_oracle.mul Layout.empty l) l
      && Layout.equal (Layout_oracle.mul l Layout.empty) l)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "layout"
    [
      ( "paper example",
        [
          Alcotest.test_case "Table 1 mapping" `Quick test_table1;
          Alcotest.test_case "layout A shape" `Quick test_layout_a_shape;
          Alcotest.test_case "matrix matches Section 4.1" `Quick test_matrix_matches_paper;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "identity and zeros" `Quick test_identity_zeros;
          Alcotest.test_case "product shifts shared dims" `Quick test_mul_shifts_shared_dims;
          Alcotest.test_case "compose and invert" `Quick test_compose_invert;
          Alcotest.test_case "pseudo inverse broadcast" `Quick test_pseudo_invert;
          Alcotest.test_case "divide left" `Quick test_divide_left_layout;
        ] );
      ( "surgery",
        [
          Alcotest.test_case "project outs / slice" `Quick test_project_outs;
          Alcotest.test_case "sliced compress" `Quick test_sliced_compress;
          Alcotest.test_case "flatten / reshape" `Quick test_flatten_reshape;
          Alcotest.test_case "exchange out names" `Quick test_exchange_out_names;
          Alcotest.test_case "resize in" `Quick test_resize_in;
        ] );
      ( "analyses",
        [ Alcotest.test_case "num consecutive" `Quick test_num_consecutive ] );
      ( "validation",
        [
          Alcotest.test_case "make rejects malformed" `Quick test_make_validation;
          Alcotest.test_case "empty and trivial dims" `Quick test_empty_and_trivial;
        ] );
      ( "properties",
        q
          [
            prop_blocked_distributed;
            prop_invert_roundtrip;
            prop_pseudo_invert_section;
            prop_slice_surjective;
            prop_mul_divide;
            prop_apply_linear;
            prop_apply_flat_partial;
          ] );
      ("oracle", q [ prop_mul_matches_oracle; prop_mul_empty ]);
    ]
