(* Property tests for the algebraic laws of the layout algebra —
   the categorical structure Section 4.2 relies on. *)

open Linear_layout

(* Random small invertible layouts over a fixed labeled space, built
   from a random permutation of basis columns. *)
let gen_permutation_layout ~ins ~outs =
  QCheck.Gen.(
    let total = List.fold_left (fun a (_, b) -> a + b) 0 ins in
    let* perm =
      (* Fisher-Yates over [0..total-1] using generated swaps. *)
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
  (* hardware -> hardware permutations, composable on both sides *)
  QCheck.make (gen_permutation_layout ~ins:space ~outs:space) ~print:Layout.to_string

let prop_compose_assoc =
  QCheck.Test.make ~name:"compose is associative" ~count:200
    (QCheck.triple arb_perm arb_endo arb_endo)
    (fun (h, g, f) ->
      let left = Layout.compose (Layout.compose h g) f in
      let right = Layout.compose h (Layout.compose g f) in
      Layout.equal left right)

let prop_compose_identity =
  QCheck.Test.make ~name:"identity is neutral for compose" ~count:200 arb_endo (fun f ->
      let id =
        List.fold_left
          (fun acc (d, bits) -> Layout.mul acc (Layout.identity1d bits ~in_dim:d ~out_dim:d))
          Layout.empty space
      in
      Layout.equal (Layout.compose f id) f)

let prop_compose_matches_matrix_product =
  QCheck.Test.make ~name:"compose = matrix product (Def 4.2)" ~count:200
    (QCheck.pair arb_perm arb_endo)
    (fun (g, f) ->
      let c = Layout.compose g f in
      F2.Bitmatrix.equal (Layout.to_matrix c)
        (F2.Bitmatrix.mul (Layout.to_matrix g) (Layout.to_matrix f)))

let prop_mul_block_diagonal =
  (* Product of layouts on disjoint labels = block-diagonal matrix
     (Definition 4.3). *)
  QCheck.Test.make ~name:"product on disjoint labels is block diagonal" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 3) (int_range 1 3)))
    (fun (ka, kb) ->
      let a = Layout.identity1d ka ~in_dim:Dims.register ~out_dim:(Dims.dim 1) in
      let b = Layout.identity1d kb ~in_dim:Dims.lane ~out_dim:(Dims.dim 0) in
      let prod = Layout.mul a b in
      (* dim1 (fastest) occupies the low rows; register the low cols. *)
      F2.Bitmatrix.equal (Layout.to_matrix prod)
        (F2.Bitmatrix.block_diag (Layout.to_matrix a) (Layout.to_matrix b)))

let prop_invert_unique =
  QCheck.Test.make ~name:"inverse inverts on both sides" ~count:200 arb_perm (fun l ->
      let li = Layout.invert l in
      F2.Bitmatrix.is_identity (Layout.to_matrix (Layout.compose li l))
      && F2.Bitmatrix.is_identity (Layout.to_matrix (Layout.compose l li)))

let prop_double_invert =
  QCheck.Test.make ~name:"invert is an involution" ~count:200 arb_perm (fun l ->
      Layout.equal (Layout.invert (Layout.invert l)) l)

let prop_flatten_reshape_roundtrip =
  QCheck.Test.make ~name:"reshape_outs (flatten_outs l) = l" ~count:200 arb_perm (fun l ->
      Layout.equal (Layout.reshape_outs (Layout.flatten_outs l) (Layout.out_dims l)) l)

let prop_exchange_involution =
  QCheck.Test.make ~name:"transposing twice is the identity" ~count:200 arb_perm (fun l ->
      let spec = [ (Dims.dim 0, Dims.dim 1); (Dims.dim 1, Dims.dim 0) ] in
      Layout.equal (Layout.exchange_out_names (Layout.exchange_out_names l spec) spec) l)

let prop_pseudo_invert_idempotent_projector =
  (* B o B^+ is a projector on the logical space: applying it twice
     equals applying it once. *)
  let arb = QCheck.make (gen_permutation_layout ~ins:space ~outs:out_space) in
  QCheck.Test.make ~name:"l o pseudo_invert l is a projector" ~count:200 arb (fun l ->
      (* Make it non-injective by forgetting a register bit. *)
      let l = Layout.resize_in l Dims.register 3 in
      let p = Layout.compose l (Layout.pseudo_invert l) in
      F2.Bitmatrix.equal
        (Layout.to_matrix (Layout.compose p p))
        (Layout.to_matrix p))

let prop_divide_left_recovers =
  QCheck.Test.make ~name:"(t x q) /l t = q (Def 4.4)" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 2) (int_range 1 2)))
    (fun (kt, kq) ->
      let t = Layout.identity1d kt ~in_dim:Dims.register ~out_dim:Dims.offset in
      let q = Layout.identity1d kq ~in_dim:Dims.lane ~out_dim:Dims.offset in
      let l = Layout.mul t q in
      match Layout.divide_left l t with
      | Some q' -> Layout.equivalent q' q
      | None -> false)

let prop_slice_then_free_bits =
  (* Slicing away a dimension frees exactly the bits that mapped to it. *)
  QCheck.Test.make ~name:"slicing frees the removed dimension's bits" ~count:200 arb_perm
    (fun l ->
      let sliced = Sliced.make l ~dim:1 in
      let freed =
        Layout.free_variable_masks sliced
        |> List.fold_left (fun acc (_, m) -> acc + F2.Bitvec.popcount m) 0
      in
      freed = Layout.out_bits l (Dims.dim 1))

let prop_free_variable_masks_reference =
  (* Random register and lane columns over a 4-bit offset, so columns
     repeat, vanish and depend on each other. *)
  let gen =
    QCheck.Gen.(
      let* r = int_range 0 3 in
      let* l = int_range 0 3 in
      let+ cols = list_repeat (r + l) (int_bound 15) in
      Layout.of_matrix
        ~ins:[ (Dims.register, r); (Dims.lane, l) ]
        ~outs:[ (Dims.offset, 4) ]
        (F2.Bitmatrix.make ~rows:4 (Array.of_list cols)))
  in
  QCheck.Test.make ~name:"free_variable_masks = per-column reference" ~count:300
    (QCheck.make gen ~print:Layout.to_string)
    (fun l -> Layout.free_variable_masks l = Layout_oracle.free_variable_masks l)

let prop_parse_roundtrip =
  QCheck.Test.make ~name:"Parse.of_string (Parse.to_string l) = l" ~count:200 arb_perm
    (fun l ->
      match Parse.of_string (Parse.to_string l) with
      | Ok l' -> Layout.equal l' l
      | Error _ -> false)

(* The canonical dimension order against its former definition: a
   polymorphic comparison of (group, numeric subkey, name) keys built
   with [String.sub] and [int_of_string_opt].  The labels include the
   forms [int_of_string_opt] reads in its own way (leading zeros,
   underscores, a hex prefix, a sign, overflow). *)
let index_oracle name =
  if String.length name > 3 && String.sub name 0 3 = "dim" then
    int_of_string_opt (String.sub name 3 (String.length name - 3))
  else None

let key_oracle name =
  match name with
  | "register" -> (0, 0, name)
  | "lane" -> (1, 0, name)
  | "warp" -> (2, 0, name)
  | "block" -> (3, 0, name)
  | "offset" -> (4, 0, name)
  | "vec" -> (5, 0, name)
  | "bank" -> (6, 0, name)
  | "seg" -> (7, 0, name)
  | "flat" -> (8, 0, name)
  | _ -> ( match index_oracle name with Some k -> (9, -k, name) | None -> (10, 0, name))

let labels =
  [ "register"; "lane"; "warp"; "block"; "offset"; "vec"; "bank"; "seg"; "flat"; "dim0";
    "dim1"; "dim2"; "dim10"; "dim007"; "dim"; "dimx"; "dim_1"; "dim1_0"; "dim0x1f"; "dim-3";
    "dim+3"; "dim999999999999999999"; "dim4611686018427387903"; "dim99999999999999999999";
    "di"; "Dim1"; "a"; ""; "zeta"; "registers" ]

let prop_dims_compare =
  QCheck.Test.make ~name:"Dims.compare = (group, subkey, name) key order" ~count:500
    QCheck.(pair (oneofl labels) (oneofl labels))
    (fun (a, b) ->
      Int.compare (Dims.compare a b) 0 = Int.compare (Stdlib.compare (key_oracle a) (key_oracle b)) 0
      && Dims.dim_index a = index_oracle a)

let prop_kernel_dimension =
  QCheck.Test.make ~name:"dim ker + rank = total in bits" ~count:200 arb_perm (fun l ->
      let l = Layout.resize_in l Dims.warp 3 (* add broadcast bits *) in
      let m = Layout.to_matrix l in
      List.length (Layout.kernel l) + F2.Bitmatrix.rank m = Layout.total_in_bits l)

(* {1 The stored hash}

   Every layout carries the hash computed when it is built.  Whatever
   built it, that hash must be the one [of_matrix] computes from the same
   dimensions and a fresh copy of the columns. *)

let rebuilt l =
  let m = Layout.to_matrix l in
  Layout.of_matrix ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
    (F2.Bitmatrix.make ~rows:(F2.Bitmatrix.rows m) (F2.Bitmatrix.columns m))

(* Layouts made from [l] (over [space] -> [out_space]) and [g] (an
   endomorphism of [space]) by every constructor and operation. *)
let built_every_way l g =
  let bases l = List.map (fun (d, bits) -> (d, List.init bits (Layout.basis l d))) (Layout.in_dims l) in
  let tile = Layout.identity1d 1 ~in_dim:Dims.register ~out_dim:(Dims.dim 0) in
  let trivial = Layout.zeros1d 0 ~in_dim:Dims.block ~out_dim:(Dims.dim 2) in
  let swap = [ (Dims.dim 0, Dims.dim 1); (Dims.dim 1, Dims.dim 0) ] in
  let sliced = Sliced.make l ~dim:1 in
  [
    ("of_matrix", l);
    ("make", Layout.make ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l) ~bases:(bases l));
    ("empty", Layout.empty);
    ("identity1d", Layout.identity1d 3 ~in_dim:Dims.lane ~out_dim:(Dims.dim 0));
    ("zeros1d", Layout.zeros1d 2 ~in_dim:Dims.warp ~out_dim:(Dims.dim 1));
    ("mul", Layout.mul l (Layout.identity1d 2 ~in_dim:Dims.block ~out_dim:(Dims.dim 2)));
    ("mul on shared labels", Layout.mul tile l);
    ("compose", Layout.compose l g);
    ("Memo.compose", Layout.Memo.compose l g);
    ("invert", Layout.invert l);
    ("Memo.invert", Layout.Memo.invert l);
    ("invert twice", Layout.invert (Layout.invert l));
    ("pseudo_invert", Layout.pseudo_invert (Layout.resize_in l Dims.register 3));
    ("flatten_outs", Layout.flatten_outs l);
    ("flatten_ins", Layout.flatten_ins l);
    ("reshape_outs", Layout.reshape_outs (Layout.flatten_outs l) (Layout.out_dims l));
    ("exchange_out_names", Layout.exchange_out_names l swap);
    ("project_outs", Layout.project_outs l [ Dims.dim 0 ]);
    ("remove_out_dim", sliced);
    ("resize_in (grow)", Layout.resize_in l Dims.warp 3);
    ("resize_in (shrink)", Layout.resize_in l Dims.lane 1);
    ("resize_in (new dim)", Layout.resize_in l Dims.block 2);
    ("drop_trivial_dims", Layout.drop_trivial_dims (Layout.mul l trivial));
    ("divide_left", Option.get (Layout.divide_left (Layout.mul tile l) tile));
    ("Sliced.compress", Sliced.compress sliced ~in_dim:Dims.register);
  ]

let prop_stored_hash =
  QCheck.Test.make ~name:"stored hash = hash of the rebuilt layout, for every constructor"
    ~count:200 (QCheck.pair arb_perm arb_endo) (fun (l, g) ->
      List.for_all
        (fun (what, x) ->
          let r = rebuilt x in
          Layout.equal x r && Layout.Memo.hash x = Layout.Memo.hash r
          || QCheck.Test.fail_reportf "%s: stored hash %d, rebuilt %d" what (Layout.Memo.hash x)
               (Layout.Memo.hash r))
        (built_every_way l g))

let prop_equal_implies_hash =
  QCheck.Test.make ~name:"equal a b => hash a = hash b" ~count:200 (QCheck.pair arb_perm arb_endo)
    (fun (l, g) ->
      let xs = List.map snd (built_every_way l g) in
      (* Equal layouts built different ways. *)
      Layout.equal (Layout.invert (Layout.invert l)) l
      && Layout.equal (Layout.drop_trivial_dims (Layout.mul l (Layout.zeros1d 0 ~in_dim:Dims.block ~out_dim:(Dims.dim 2)))) l
      && List.for_all
           (fun a ->
             List.for_all
               (fun b -> (not (Layout.equal a b)) || Layout.Memo.hash a = Layout.Memo.hash b)
               xs)
           xs)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "laws"
    [
      ( "category",
        q
          [
            prop_compose_assoc;
            prop_compose_identity;
            prop_compose_matches_matrix_product;
            prop_mul_block_diagonal;
          ] );
      ( "inverses",
        q
          [
            prop_invert_unique;
            prop_double_invert;
            prop_pseudo_invert_idempotent_projector;
            prop_divide_left_recovers;
          ] );
      ( "structure",
        q
          [
            prop_flatten_reshape_roundtrip;
            prop_exchange_involution;
            prop_slice_then_free_bits;
            prop_free_variable_masks_reference;
            prop_kernel_dimension;
            prop_parse_roundtrip;
            prop_dims_compare;
          ] );
      ("hash", q [ prop_stored_hash; prop_equal_implies_hash ]);
    ]
