(* Tests for the F2 linear-algebra substrate. *)

open F2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Bitvec} *)

let test_bitvec_basics () =
  check_int "unit 3" 8 (Bitvec.unit 3);
  check_bool "bit" true (Bitvec.bit 0b1010 1);
  check_bool "bit" false (Bitvec.bit 0b1010 0);
  check_int "add" 0b0110 (Bitvec.add 0b1010 0b1100);
  check_int "popcount" 3 (Bitvec.popcount 0b1011);
  check_bool "dot" true (Bitvec.dot 0b1011 0b0001);
  check_bool "dot even" false (Bitvec.dot 0b1011 0b0011);
  check_int "msb" 3 (Bitvec.msb 0b1010);
  check_int "msb zero" (-1) (Bitvec.msb 0);
  check_int "lsb" 1 (Bitvec.lsb 0b1010);
  check_int "width" 4 (Bitvec.width 0b1010);
  Alcotest.(check (list int)) "support" [ 0; 2; 3 ] (Bitvec.support 0b1101)

let test_bitvec_fields () =
  check_int "extract" 0b101 (Bitvec.extract 0b11010 ~pos:1 ~len:3);
  check_int "insert" 0b10110 (Bitvec.insert 0b10000 ~pos:1 ~len:3 0b011);
  check_int "all length" 8 (List.length (Bitvec.all 3));
  Alcotest.(check string) "to_string" "0101" (Bitvec.to_string ~width:4 0b101)

let test_bitvec_ntz () =
  check_int "ntz" 1 (Bitvec.ntz 0b1010);
  check_int "ntz one" 0 (Bitvec.ntz 1);
  check_int "ntz pow2" 3 (Bitvec.ntz 8);
  check_int "ntz zero" (-1) (Bitvec.ntz 0);
  check_int "ntz = lsb" (Bitvec.lsb 0b101100) (Bitvec.ntz 0b101100);
  check_int "ntz top bit" 62 (Bitvec.ntz (1 lsl 62))

(* Per-bit reference for [Bitvec.msb]: the highest [k] with bit [k] set,
   reading the word as unsigned (a negative int has bit 62 set). *)
let msb_reference v =
  let rec go k = if k < 0 then -1 else if (v lsr k) land 1 = 1 then k else go (k - 1) in
  go (Sys.int_size - 1)

let test_bitvec_msb_edges () =
  let check v = check_int (Printf.sprintf "msb %d" v) (msb_reference v) (Bitvec.msb v) in
  List.iter check [ 0; -1; min_int; max_int; -2; min_int + 1 ];
  for k = 0 to 62 do
    let p = 1 lsl k in
    List.iter check [ p; p - 1; p + 1; -p ]
  done

let prop_msb_reference =
  QCheck.Test.make ~name:"msb = per-bit reference" ~count:2000 QCheck.int (fun v ->
      (* Also at every width: shift by the value's low six bits. *)
      let w = v lsr ((v land 63) mod 63) in
      Bitvec.msb v = msb_reference v && Bitvec.msb w = msb_reference w)

(* {1 Bitmatrix} *)

let m rows cols = Bitmatrix.make ~rows (Array.of_list cols)

let test_matrix_apply () =
  (* The paper's Section 4.1 running example: layout A as an 8x8 matrix.
     Columns (flattened output, j in low 4 bits, i in high 4 bits):
     reg0 -> j bit0; reg1 -> i bit0; thr0 -> j bit1; thr1 -> j bit2;
     thr2 -> j bit3; thr3 -> i bit1; thr4 -> i bit2; wrp0 -> i bit3. *)
  let a =
    m 8 [ 0b00000001; 0b00010000; 0b00000010; 0b00000100; 0b00001000; 0b00100000;
          0b01000000; 0b10000000 ]
  in
  (* Register r1 (0b01) in thread t9 (0b01001) of warp w0: input vector
     reg bits 0-1, thr bits 2-6, wrp bit 7. *)
  let v = 0b0_01001_01 in
  let w = Bitmatrix.apply a v in
  check_int "j = 3" 3 (Bitvec.extract w ~pos:0 ~len:4);
  check_int "i = 2" 2 (Bitvec.extract w ~pos:4 ~len:4);
  check_bool "invertible" true (Bitmatrix.is_invertible a);
  let ai = Bitmatrix.inverse a in
  check_int "roundtrip" v (Bitmatrix.apply ai w)

let test_matrix_mul () =
  let a = m 2 [ 0b01; 0b11 ] in
  let b = m 2 [ 0b10; 0b01 ] in
  let ab = Bitmatrix.mul a b in
  (* column 0 of ab = a * e1 = [1;1]; column 1 = a * e0 = [1;0] *)
  check_int "col0" 0b11 (Bitmatrix.column ab 0);
  check_int "col1" 0b01 (Bitmatrix.column ab 1);
  let i = Bitmatrix.identity 3 in
  check_bool "id*id" true (Bitmatrix.is_identity (Bitmatrix.mul i i))

let test_matrix_rank () =
  check_int "rank id" 4 (Bitmatrix.rank (Bitmatrix.identity 4));
  check_int "rank dup" 1 (Bitmatrix.rank (m 2 [ 0b01; 0b01; 0b01 ]));
  check_int "rank zero" 0 (Bitmatrix.rank (Bitmatrix.zero ~rows:3 ~cols:2));
  check_bool "surjective" true (Bitmatrix.is_surjective (m 2 [ 0b01; 0b11; 0b10 ]));
  check_bool "not injective" false (Bitmatrix.is_injective (m 2 [ 0b01; 0b11; 0b10 ]))

let test_matrix_solve () =
  let a = m 3 [ 0b011; 0b101; 0b110 ] in
  (* Columns sum to 0, so rank is 2 and the kernel is {e0+e1+e2}. *)
  check_int "rank" 2 (Bitmatrix.rank a);
  (match Bitmatrix.solve a 0b110 with
  | Some x -> check_int "solution maps back" 0b110 (Bitmatrix.apply a x)
  | None -> Alcotest.fail "expected a solution");
  (match Bitmatrix.solve a 0b111 with
  | Some _ -> Alcotest.fail "0b111 is not in the image"
  | None -> ());
  Alcotest.(check (list int)) "kernel" [ 0b111 ] (Bitmatrix.kernel a)

let test_right_inverse () =
  (* A surjective 2x3 map. *)
  let a = m 2 [ 0b01; 0b11; 0b10 ] in
  let x = Bitmatrix.right_inverse a in
  check_bool "a x = id" true (Bitmatrix.is_identity (Bitmatrix.mul a x))

let test_block_diag_divide () =
  let a = m 2 [ 0b01; 0b11 ] in
  let b = m 3 [ 0b100; 0b010; 0b001 ] in
  let ab = Bitmatrix.block_diag a b in
  check_int "rows" 5 (Bitmatrix.rows ab);
  check_int "cols" 5 (Bitmatrix.cols ab);
  (match Bitmatrix.divide_left ab a with
  | Some q -> check_bool "quotient" true (Bitmatrix.equal q b)
  | None -> Alcotest.fail "division should succeed");
  (* Division by a mismatched tile fails. *)
  let bad = m 2 [ 0b10; 0b11 ] in
  check_bool "mismatch" true (Bitmatrix.divide_left ab bad = None)

let test_permutation () =
  check_bool "id is perm" true (Bitmatrix.is_permutation (Bitmatrix.identity 4));
  check_bool "zero col ok" true (Bitmatrix.is_permutation (m 2 [ 0b01; 0b00; 0b10 ]));
  check_bool "dup col not" false (Bitmatrix.is_permutation (m 2 [ 0b01; 0b01 ]));
  check_bool "two bits not" false (Bitmatrix.is_permutation (m 2 [ 0b11 ]))

(* {1 Subspace} *)

let test_subspace_basis () =
  let b = Subspace.echelon_basis [ 0b110; 0b011; 0b101 ] in
  check_int "dim" 2 (List.length b);
  check_bool "mem" true (Subspace.mem b 0b101);
  check_bool "not mem" false (Subspace.mem b 0b001);
  check_int "dim fn" 2 (Subspace.dim [ 0b110; 0b011; 0b101 ])

let test_subspace_complete () =
  let ext = Subspace.complete_basis ~dim:4 [ 0b0011; 0b0110 ] in
  check_int "extension size" 2 (List.length ext);
  check_int "full dim" 4 (Subspace.dim (0b0011 :: 0b0110 :: ext))

let test_subspace_intersection () =
  let a = [ 0b001; 0b010 ] and b = [ 0b010; 0b100 ] in
  let i = Subspace.intersection a b in
  check_int "dim 1" 1 (List.length i);
  check_bool "is e1" true (Subspace.mem [ 0b010 ] (List.hd i));
  (* Trivial intersection. *)
  check_int "trivial" 0 (List.length (Subspace.intersection [ 0b001 ] [ 0b010 ]));
  (* Non-axis-aligned intersection: span{e0+e1, e2} and span{e0+e1+e2}
     intersect trivially; span{e0+e1,e2} and span{e0+e1} in dim 1. *)
  check_int "skew" 1 (List.length (Subspace.intersection [ 0b011; 0b100 ] [ 0b111 ]))

let test_subspace_span_elements () =
  let elems = Subspace.span_elements [ 0b011; 0b101 ] in
  Alcotest.(check (list int)) "span" [ 0b000; 0b011; 0b101; 0b110 ]
    (Array.to_list elems |> List.sort compare)

(* {1 Properties} *)

let gen_matrix =
  QCheck.Gen.(
    let* rows = int_range 1 8 in
    let* cols = int_range 1 8 in
    let* data = list_repeat cols (int_bound ((1 lsl rows) - 1)) in
    return (Bitmatrix.make ~rows (Array.of_list data)))

let arb_matrix = QCheck.make gen_matrix ~print:(Format.asprintf "%a" Bitmatrix.pp)

(* Naive reference for [Bitmatrix.apply]: probe every column's input bit.
   Columns at or past the word width have no input bit. *)
let naive_apply a v =
  let acc = ref 0 in
  for j = 0 to Bitmatrix.cols a - 1 do
    if j < Sys.int_size && (v lsr j) land 1 = 1 then acc := !acc lxor Bitmatrix.column a j
  done;
  !acc

(* Any row count up to the 62-bit word limit (0 and 62 weighted in), 0
   to 66 columns, and any input word, including bits above the column
   count and the sign bit. *)
let arb_apply_case =
  let gen =
    QCheck.Gen.(
      let* rows =
        frequency
          [ (1, return 0); (2, return Bitvec.max_bits); (4, int_range 1 16); (2, int_range 17 61) ]
      in
      let* cols = frequency [ (1, return 0); (4, int_range 1 16); (2, int_range 17 66) ] in
      let col = if rows = 0 then return 0 else map (fun c -> c land ((1 lsl rows) - 1)) int in
      let* data = array_repeat cols col in
      let* v = oneof [ int; int_bound 0xFFFF; map (fun c -> 1 lsl c) (int_range 0 61) ] in
      return (Bitmatrix.make ~rows data, v))
  in
  QCheck.make gen ~print:(fun (a, v) ->
      Format.asprintf "%dx%d %a@.v = %d" (Bitmatrix.rows a) (Bitmatrix.cols a) Bitmatrix.pp a v)

let prop_apply_reference =
  QCheck.Test.make ~name:"apply = naive bit-loop reference" ~count:1000 arb_apply_case
    (fun (a, v) -> Bitmatrix.apply a v = naive_apply a v)

let prop_solve_consistent =
  QCheck.Test.make ~name:"solve returns a valid preimage" ~count:500 arb_matrix (fun a ->
      let b = Bitmatrix.apply a ((1 lsl Bitmatrix.cols a) - 1) in
      match Bitmatrix.solve a b with
      | Some x -> Bitmatrix.apply a x = b
      | None -> false)

let prop_right_inverse =
  QCheck.Test.make ~name:"right inverse of surjective maps" ~count:500 arb_matrix (fun a ->
      QCheck.assume (Bitmatrix.is_surjective a);
      Bitmatrix.is_identity (Bitmatrix.mul a (Bitmatrix.right_inverse a)))

let prop_kernel =
  QCheck.Test.make ~name:"kernel vectors map to zero" ~count:500 arb_matrix (fun a ->
      List.for_all (fun k -> Bitmatrix.apply a k = 0) (Bitmatrix.kernel a))

let prop_rank_nullity =
  QCheck.Test.make ~name:"rank-nullity" ~count:500 arb_matrix (fun a ->
      Bitmatrix.rank a + List.length (Bitmatrix.kernel a) = Bitmatrix.cols a)

let prop_block_diag_divide =
  QCheck.Test.make ~name:"(a x b) /l a = b" ~count:500
    (QCheck.pair arb_matrix arb_matrix) (fun (a, b) ->
      match Bitmatrix.divide_left (Bitmatrix.block_diag a b) a with
      | Some q -> Bitmatrix.equal q b
      | None -> false)

let prop_intersection_dim =
  let gen_basis = QCheck.Gen.(list_size (int_range 0 4) (int_range 1 63)) in
  QCheck.Test.make ~name:"dim(U) + dim(V) = dim(U+V) + dim(U and V)" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_basis gen_basis))
    (fun (a, b) ->
      let da = Subspace.dim a and db = Subspace.dim b in
      let ds = Subspace.dim (a @ b) in
      let di = List.length (Subspace.intersection a b) in
      da + db = ds + di)

(* {2 Echelon reference model}

   The list-of-pivots Gaussian elimination that the MSB-indexed
   [factorize] replaced, kept as an executable specification: both
   only ever reduce by the pivot whose MSB matches the current value,
   so they must agree bit for bit. *)

let ref_reduce pivots v comb =
  let rec go v comb =
    if v = 0 then (v, comb)
    else
      match List.assoc_opt (Bitvec.msb v) pivots with
      | Some (pv, pc) -> go (v lxor pv) (comb lxor pc)
      | None -> (v, comb)
  in
  go v comb

let ref_pivots a =
  let pivots = ref [] in
  for j = 0 to Bitmatrix.cols a - 1 do
    let v, comb = ref_reduce !pivots (Bitmatrix.column a j) (Bitvec.unit j) in
    if v <> 0 then pivots := (Bitvec.msb v, (v, comb)) :: !pivots
  done;
  !pivots

let ref_solve a b =
  let v, comb = ref_reduce (ref_pivots a) b 0 in
  if v = 0 then Some comb else None

(* A column that reduces to zero against the pivots of the columns
   before it yields one kernel vector: its own unit combined with the
   pivots it was reduced by. *)
let ref_kernel a =
  let pivots = ref [] and ker = ref [] in
  for j = 0 to Bitmatrix.cols a - 1 do
    let v, comb = ref_reduce !pivots (Bitmatrix.column a j) (Bitvec.unit j) in
    if v <> 0 then pivots := (Bitvec.msb v, (v, comb)) :: !pivots else ker := comb :: !ker
  done;
  List.rev !ker

let prop_echelon_rank_matches_reference =
  QCheck.Test.make ~name:"indexed echelon rank = reference rank" ~count:500 arb_matrix
    (fun a ->
      Bitmatrix.echelon_rank (Bitmatrix.factorize a) = List.length (ref_pivots a))

let prop_solve_matches_reference =
  QCheck.Test.make ~name:"indexed solve = reference solve (all RHS)" ~count:100 arb_matrix
    (fun a ->
      List.for_all
        (fun b -> Bitmatrix.solve a b = ref_solve a b)
        (Bitvec.all (Bitmatrix.rows a)))

let prop_solve_with_multi_rhs =
  QCheck.Test.make ~name:"one echelonize serves every RHS" ~count:100 arb_matrix (fun a ->
      let e = Bitmatrix.factorize a in
      List.for_all
        (fun b -> Bitmatrix.solve_with e b = Bitmatrix.solve a b)
        (Bitvec.all (Bitmatrix.rows a)))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose is an involution" ~count:500 arb_matrix (fun a ->
      Bitmatrix.equal (Bitmatrix.transpose (Bitmatrix.transpose a)) a)

let prop_transpose_entries =
  QCheck.Test.make ~name:"transpose entries: t[j,i] = a[i,j]" ~count:500 arb_matrix
    (fun a ->
      let t = Bitmatrix.transpose a in
      List.for_all
        (fun j ->
          List.for_all
            (fun i ->
              Bitvec.bit (Bitmatrix.column a j) i = Bitvec.bit (Bitmatrix.column t i) j)
            (List.init (Bitmatrix.rows a) Fun.id))
        (List.init (Bitmatrix.cols a) Fun.id))

let prop_intersection_members =
  let gen_basis = QCheck.Gen.(list_size (int_range 0 4) (int_range 1 63)) in
  QCheck.Test.make ~name:"intersection vectors lie in both spans" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_basis gen_basis))
    (fun (a, b) ->
      Subspace.intersection a b
      |> List.for_all (fun v -> Subspace.mem a v && Subspace.mem b v))

(* {2 Subspace against the list reference} *)

let gen_vectors =
  QCheck.Gen.(
    let* bits = int_range 1 31 in
    list_size (int_range 0 8) (int_bound ((1 lsl bits) - 1)))

let prop_subspace_matches_reference =
  QCheck.Test.make ~name:"subspace = list reference" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(triple (list int) (list int) int)
       QCheck.Gen.(triple gen_vectors gen_vectors (int_bound ((1 lsl 31) - 1))))
    (fun (a, b, v) ->
      let sorted l = List.sort compare l in
      let span = Array.to_list (Subspace.span_elements (Subspace_oracle.echelon_basis a)) in
      Subspace.echelon_basis a = Subspace_oracle.echelon_basis a
      && List.for_all (fun v -> Subspace.mem a v = Subspace_oracle.mem a v) (v :: span)
      && Subspace.independent_from a v = not (Subspace_oracle.mem a v)
      && Subspace.extend a b = Subspace_oracle.extend a b
      && Subspace.complete_basis ~dim:31 a = Subspace_oracle.complete_basis ~dim:31 a
      && sorted (Subspace.intersection a b) = sorted (Subspace_oracle.intersection a b)
      && Subspace.equal_span a b
         = (List.for_all (Subspace_oracle.mem a) b && List.for_all (Subspace_oracle.mem b) a)
      && Subspace.equal_span a (Subspace_oracle.echelon_basis a))

(* {2 Factorize against the reference}

   [factorize] must be bit-identical to the list reference — same rank,
   same pivot (value, combination) pairs, same solutions and kernels —
   because the golden tables downstream pin exact solver outputs.  The
   generator covers tall matrices and the degenerate shapes (zero
   columns, duplicated columns, rank deficiency). *)

let gen_matrix_struct =
  QCheck.Gen.(
    let* rows = int_range 1 50 in
    let* cols = int_range 1 12 in
    let* data = list_repeat cols (int_bound ((1 lsl rows) - 1)) in
    let* degenerate = bool in
    let* zero_mask = int_bound ((1 lsl cols) - 1) in
    let* dup = int_bound (cols - 1) in
    let arr = Array.of_list data in
    if degenerate then begin
      Array.iteri (fun j _ -> if zero_mask land (1 lsl j) <> 0 then arr.(j) <- 0) arr;
      arr.(dup) <- arr.(0)
    end;
    return (Bitmatrix.make ~rows arr))

let arb_matrix_struct =
  QCheck.make gen_matrix_struct ~print:(Format.asprintf "%a" Bitmatrix.pp)

(* A matrix together with a handful of right-hand sides: half arbitrary
   (usually outside the image of a rank-deficient map), half images of
   random vectors (always solvable). *)
let arb_matrix_rhs =
  let gen =
    QCheck.Gen.(
      let* a = gen_matrix_struct in
      let rows = Bitmatrix.rows a and cols = Bitmatrix.cols a in
      let* raw = list_size (int_range 1 6) (int_bound ((1 lsl rows) - 1)) in
      let* xs = list_size (int_range 1 6) (int_bound ((1 lsl cols) - 1)) in
      let images = List.map (Bitmatrix.apply a) xs in
      return (a, Array.of_list (raw @ images)))
  in
  QCheck.make gen ~print:(fun (a, bs) ->
      Format.asprintf "%a with rhs [%s]" Bitmatrix.pp a
        (String.concat "; " (Array.to_list (Array.map string_of_int bs))))

let prop_factorize_rank =
  QCheck.Test.make ~name:"factorize rank = reference rank" ~count:1000 arb_matrix_struct
    (fun a -> Bitmatrix.echelon_rank (Bitmatrix.factorize a) = List.length (ref_pivots a))

let prop_factorize_pivots =
  QCheck.Test.make ~name:"factorize pivots = reference pivots (values and combinations)"
    ~count:1000 arb_matrix_struct (fun a ->
      Bitmatrix.echelon_pivots (Bitmatrix.factorize a)
      = List.map snd (List.sort compare (ref_pivots a)))

let prop_factorize_solve =
  QCheck.Test.make ~name:"factorize solve = reference solve (random and image RHS)"
    ~count:1000 arb_matrix_rhs (fun (a, bs) ->
      let e = Bitmatrix.factorize a in
      Array.for_all (fun b -> Bitmatrix.solve_with e b = ref_solve a b) bs)

let prop_factorize_kernel =
  QCheck.Test.make ~name:"factorize kernel = reference kernel" ~count:1000 arb_matrix_struct
    (fun a -> Bitmatrix.kernel_with (Bitmatrix.factorize a) = ref_kernel a)

let prop_right_inverse_with =
  QCheck.Test.make ~name:"right_inverse_with = right_inverse on surjective maps" ~count:1000
    arb_matrix (fun a ->
      QCheck.assume (Bitmatrix.is_surjective a);
      let x = Bitmatrix.right_inverse_with (Bitmatrix.factorize a) in
      Bitmatrix.equal x (Bitmatrix.right_inverse a)
      && Bitmatrix.is_identity (Bitmatrix.mul a x))

(* {2 Width guards} *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_width_guards () =
  check_int "unit at max_bits - 1" (1 lsl (Bitvec.max_bits - 1)) (Bitvec.unit (Bitvec.max_bits - 1));
  expect_invalid "unit at max_bits" (fun () -> Bitvec.unit Bitvec.max_bits);
  expect_invalid "unit negative" (fun () -> Bitvec.unit (-1));
  expect_invalid "make beyond max_bits rows" (fun () ->
      Bitmatrix.make ~rows:(Bitvec.max_bits + 1) [| 0 |]);
  (* The widest legal single-word matrix still works end to end. *)
  let wide = Bitmatrix.make ~rows:Bitvec.max_bits [| 1 lsl (Bitvec.max_bits - 1) |] in
  check_int "wide rank" 1 (Bitmatrix.rank wide);
  expect_invalid "transpose past max_bits columns" (fun () ->
      Bitmatrix.transpose (Bitmatrix.zero ~rows:2 ~cols:(Bitvec.max_bits + 1)));
  let forty = Bitmatrix.identity 40 in
  expect_invalid "block_diag past max_bits rows" (fun () -> Bitmatrix.block_diag forty forty);
  expect_invalid "factorize past max_bits columns" (fun () ->
      Bitmatrix.factorize (Bitmatrix.zero ~rows:2 ~cols:(Bitvec.max_bits + 1)))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "f2"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bitvec_basics;
          Alcotest.test_case "fields" `Quick test_bitvec_fields;
          Alcotest.test_case "ntz" `Quick test_bitvec_ntz;
          Alcotest.test_case "msb on 0, negatives and 2^k, 2^k-1, 2^k+1" `Quick
            test_bitvec_msb_edges;
        ] );
      ( "bitmatrix",
        [
          Alcotest.test_case "apply (paper layout A)" `Quick test_matrix_apply;
          Alcotest.test_case "mul" `Quick test_matrix_mul;
          Alcotest.test_case "rank" `Quick test_matrix_rank;
          Alcotest.test_case "solve" `Quick test_matrix_solve;
          Alcotest.test_case "right inverse" `Quick test_right_inverse;
          Alcotest.test_case "block diag / divide" `Quick test_block_diag_divide;
          Alcotest.test_case "permutation predicate" `Quick test_permutation;
          Alcotest.test_case "width guards" `Quick test_width_guards;
        ] );
      ( "subspace",
        [
          Alcotest.test_case "echelon basis" `Quick test_subspace_basis;
          Alcotest.test_case "complete basis" `Quick test_subspace_complete;
          Alcotest.test_case "intersection" `Quick test_subspace_intersection;
          Alcotest.test_case "span elements" `Quick test_subspace_span_elements;
        ] );
      ( "properties",
        q
          [
            prop_msb_reference;
            prop_apply_reference;
            prop_solve_consistent;
            prop_right_inverse;
            prop_kernel;
            prop_rank_nullity;
            prop_block_diag_divide;
            prop_intersection_dim;
            prop_intersection_members;
            prop_echelon_rank_matches_reference;
            prop_solve_matches_reference;
            prop_solve_with_multi_rhs;
            prop_transpose_involution;
            prop_transpose_entries;
            prop_right_inverse_with;
            prop_subspace_matches_reference;
          ] );
      ( "echelon reference",
        q
          [
            prop_factorize_rank;
            prop_factorize_pivots;
            prop_factorize_solve;
            prop_factorize_kernel;
          ] );
    ]
