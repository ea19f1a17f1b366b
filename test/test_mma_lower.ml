(* Tests for the generic mma lowering: the warp-ownership condition of
   Proposition 9.2, decided by rank and checked against the point-set
   oracle [Mma_oracle], and dot execution through layouts. *)

open Linear_layout

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let triple ~warps ~m ~n ~k ~bitwidth =
  ( Mma.output ~bitwidth:32 ~warps ~shape:[| m; n |] (),
    Mma.operand ~idx:0 ~bitwidth ~warps ~shape:[| m; k |] (),
    Mma.operand ~idx:1 ~bitwidth ~warps ~shape:[| k; n |] () )

let test_ownership_holds_for_operand_layouts () =
  List.iter
    (fun (warps, m, n, k, bw) ->
      let out, lhs, rhs = triple ~warps ~m ~n ~k ~bitwidth:bw in
      match Codegen.Mma_lower.check_ownership ~out ~lhs ~rhs with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "warps=[%d,%d] %dx%dx%d bw=%d: warp %d missing %s" warps.(0)
            warps.(1) m n k bw v.Codegen.Mma_lower.warp v.Codegen.Mma_lower.missing)
    [
      ([| 1; 1 |], 16, 16, 16, 16);
      ([| 2; 1 |], 32, 32, 32, 16);
      ([| 4; 1 |], 64, 64, 64, 16);
      ([| 2; 2 |], 32, 32, 64, 16);
      ([| 2; 2 |], 64, 32, 32, 8);
      ([| 1; 4 |], 16, 64, 32, 32);
    ]

let test_ownership_fails_for_naive_blocked () =
  (* Blocked operands distribute rows of A across warps the same way as
     C, but distribute B by rows too — warps owning C columns they
     don't hold B columns for. *)
  let out = Mma.output ~bitwidth:32 ~warps:[| 1; 4 |] ~shape:[| 32; 64 |] () in
  let lhs = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 32 |] in
  let rhs = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 64 |] in
  match Codegen.Mma_lower.check_ownership ~out ~lhs ~rhs with
  | Ok () -> Alcotest.fail "naive blocked operands must violate warp ownership"
  | Error _ -> ()

(* [l] with column [b] of input dimension [d] mapped to [v]. *)
let with_column l d b v =
  let m = Layout.to_matrix l in
  let cols = F2.Bitmatrix.columns m in
  let off =
    List.fold_left
      (fun acc (d', bits) -> if Dims.compare d' d < 0 then acc + bits else acc)
      0 (Layout.in_dims l)
  in
  cols.(off + b) <- v;
  Layout.of_matrix ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
    (F2.Bitmatrix.make ~rows:(F2.Bitmatrix.rows m) cols)

let expect_violation ~out ~lhs ~rhs ~warp ~missing =
  (match Codegen.Mma_lower.check_ownership ~out ~lhs ~rhs with
  | Ok () -> Alcotest.fail "violation not found"
  | Error v ->
      check_int "warp" warp v.Codegen.Mma_lower.warp;
      check_string "missing" missing v.Codegen.Mma_lower.missing;
      check_bool "oracle confirms the witness" true (Mma_oracle.confirms ~out ~lhs ~rhs v));
  check_bool "oracle finds a violation" true (Result.is_error (Mma_oracle.check ~out ~lhs ~rhs))

let test_violation_in_nonzero_warp () =
  (* Broadcasting the lhs across warps leaves every thread span intact
     and warp 0 whole; only warp 1, which owns output rows 16..31,
     lacks its lhs rows. *)
  let out, lhs, rhs = triple ~warps:[| 2; 1 |] ~m:32 ~n:32 ~k:32 ~bitwidth:16 in
  let lhs = with_column lhs Dims.warp 0 0 in
  expect_violation ~out ~lhs ~rhs ~warp:1 ~missing:"lhs(16,0)"

let test_violation_in_thread_span () =
  (* Dropping the lhs register bit that walks k leaves k = 1 outside
     every warp's span, warp 0's included. *)
  let out, lhs, rhs = triple ~warps:[| 1; 1 |] ~m:16 ~n:16 ~k:16 ~bitwidth:16 in
  let lhs = with_column lhs Dims.register 0 0 in
  expect_violation ~out ~lhs ~rhs ~warp:0 ~missing:"lhs(0,1)"

let test_execute_dot_matches_reference () =
  let m, n, k = (32, 32, 32) in
  let out, lhs, rhs = triple ~warps:[| 2; 1 |] ~m ~n ~k ~bitwidth:16 in
  (* Integer payloads make the check exact. *)
  let a_val i kk = ((i * 3) + kk) mod 7 in
  let b_val kk j = ((kk * 5) + (2 * j)) mod 9 in
  let a = Gpusim.Dist.init lhs ~f:(fun logical -> a_val (logical / k) (logical mod k)) in
  let b = Gpusim.Dist.init rhs ~f:(fun logical -> b_val (logical / n) (logical mod n)) in
  let c = Codegen.Mma_lower.execute_dot ~out a b ~mul:( * ) ~add:( + ) ~zero:0 in
  let expected logical =
    let i = logical / n and j = logical mod n in
    let acc = ref 0 in
    for kk = 0 to k - 1 do
      acc := !acc + (a_val i kk * b_val kk j)
    done;
    !acc
  in
  check_bool "dot through layouts equals reference" true
    (Gpusim.Dist.consistent_with c ~f:expected)

let test_execute_dot_rejects_bad_layouts () =
  let out = Mma.output ~bitwidth:32 ~warps:[| 1; 4 |] ~shape:[| 32; 64 |] () in
  let lhs = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 32 |] in
  let rhs = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 64 |] in
  let a = Gpusim.Dist.init lhs ~f:Fun.id in
  let b = Gpusim.Dist.init rhs ~f:Fun.id in
  match Codegen.Mma_lower.execute_dot ~out a b ~mul:( * ) ~add:( + ) ~zero:0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "must reject layouts violating warp ownership"

let prop_operand_triples_always_own =
  let gen =
    QCheck.Gen.(
      let* wm = oneofl [ 1; 2; 4 ] in
      let* wn = oneofl [ 1; 2 ] in
      let* m = oneofl [ 32; 64 ] and* n = oneofl [ 32; 64 ] and* k = oneofl [ 32; 64 ] in
      let* bw = oneofl [ 8; 16; 32 ] in
      return ([| wm; wn |], m, n, k, bw))
  in
  QCheck.Test.make ~count:60 ~name:"operand layouts always satisfy warp ownership"
    (QCheck.make gen ~print:(fun (w, m, n, k, bw) ->
         Printf.sprintf "warps=[%d,%d] %dx%dx%d bw=%d" w.(0) w.(1) m n k bw))
    (fun (warps, m, n, k, bw) ->
      QCheck.assume (k >= 256 / bw && n >= 16 && m >= 16);
      let out, lhs, rhs = triple ~warps ~m ~n ~k ~bitwidth:bw in
      Codegen.Mma_lower.check_ownership ~out ~lhs ~rhs = Ok ())

let prop_dot_correct =
  let gen =
    QCheck.Gen.(
      let* wm = oneofl [ 1; 2 ] in
      let* m = oneofl [ 16; 32 ] and* n = oneofl [ 16; 32 ] and* k = oneofl [ 16; 32 ] in
      return ([| wm; 1 |], m, n, k))
  in
  QCheck.Test.make ~count:30 ~name:"execute_dot equals reference matmul"
    (QCheck.make gen ~print:(fun (w, m, n, k) ->
         Printf.sprintf "warps=[%d,%d] %dx%dx%d" w.(0) w.(1) m n k))
    (fun (warps, m, n, k) ->
      let out, lhs, rhs = triple ~warps ~m ~n ~k ~bitwidth:16 in
      let a = Gpusim.Dist.init lhs ~f:(fun x -> (x mod 11) - 5) in
      let b = Gpusim.Dist.init rhs ~f:(fun x -> (x mod 13) - 6) in
      let c = Codegen.Mma_lower.execute_dot ~out a b ~mul:( * ) ~add:( + ) ~zero:0 in
      let ta = Result.get_ok (Gpusim.Dist.to_logical a) in
      let tb = Result.get_ok (Gpusim.Dist.to_logical b) in
      Gpusim.Dist.consistent_with c ~f:(fun logical ->
          let i = logical / n and j = logical mod n in
          let acc = ref 0 in
          for kk = 0 to k - 1 do
            acc := !acc + (ta.((i * k) + kk) * tb.((kk * n) + j))
          done;
          !acc))

(* Warp grids of 1 to 8 warps, and warp orders. *)
let grids =
  [ [| 1; 1 |]; [| 2; 1 |]; [| 1; 2 |]; [| 4; 1 |]; [| 2; 2 |]; [| 1; 4 |]; [| 8; 1 |]; [| 4; 2 |];
    [| 2; 4 |]; [| 1; 8 |] ]

let orders = [ [| 0; 1 |]; [| 1; 0 |] ]
let pick st l = List.nth l (Random.State.int st (List.length l))

(* A layout for [shape] from one of the dot constructors, half the
   time [Mma.operand], on the triple's warp grid or, one time in
   sixteen, a grid of its own.  Parameters a constructor rejects, or
   for which it covers another shape, are drawn again. *)
let rec random_layout ~grid ~idx shape st =
  let warps, warp_order =
    if Random.State.int st 16 = 0 then (pick st grids, pick st orders) else grid
  in
  let bitwidth = pick st [ 8; 16; 32 ] in
  let dims =
    Printf.sprintf "[%d,%d] warps=[%d,%d] order=[%d,%d]" shape.(0) shape.(1) warps.(0) warps.(1)
      warp_order.(0) warp_order.(1)
  in
  let desc, build =
    match Random.State.int st 6 with
    | 0 ->
        let e = pick st [ 1; 2; 4; 8 ] in
        ( Printf.sprintf "Blocked.default epT=%d %s" e dims,
          fun () ->
            Blocked.default ~order:warp_order ~elems_per_thread:e ~warp_size:32
              ~num_warps:(warps.(0) * warps.(1)) shape )
    | 1 ->
        ( Printf.sprintf "Mma.output bw=%d %s" bitwidth dims,
          fun () -> Mma.output ~warp_order ~bitwidth ~warps ~shape () )
    | 2 ->
        let m = pick st [ 16; 32 ] in
        ( Printf.sprintf "Mma.mfma_output m=%d %s" m dims,
          fun () -> Mma.mfma_output ~warp_order ~m ~warps ~shape () )
    | _ ->
        ( Printf.sprintf "Mma.operand idx=%d bw=%d %s" idx bitwidth dims,
          fun () -> Mma.operand ~warp_order ~idx ~bitwidth ~warps ~shape () )
  in
  match build () with
  | l when Layout.out_size l (Dims.dim 0) = shape.(0) && Layout.out_size l (Dims.dim 1) = shape.(1)
    ->
      (desc, l)
  | _ | (exception (Invalid_argument _ | Failure _ | Layout.Error _)) ->
      random_layout ~grid ~idx shape st

let gen_triple st =
  let m = pick st [ 16; 32; 64 ] and n = pick st [ 16; 32; 64 ] and k = pick st [ 16; 32; 64 ] in
  let grid = (pick st grids, pick st orders) in
  ( random_layout ~grid ~idx:(Random.State.int st 2) [| m; n |] st,
    random_layout ~grid ~idx:0 [| m; k |] st,
    random_layout ~grid ~idx:1 [| k; n |] st )

let prop_rank_check_matches_oracle =
  let verdict f = match f () with r -> Ok r | exception Invalid_argument e -> Error e in
  QCheck.Test.make ~count:100 ~name:"rank check = point-set oracle"
    (QCheck.make gen_triple ~print:(fun ((o, _), (a, _), (b, _)) ->
         Printf.sprintf "out %s; lhs %s; rhs %s" o a b))
    (fun ((_, out), (_, lhs), (_, rhs)) ->
      match
        ( verdict (fun () -> Codegen.Mma_lower.check_ownership ~out ~lhs ~rhs),
          verdict (fun () -> Mma_oracle.check ~out ~lhs ~rhs) )
      with
      | Ok (Ok ()), Ok (Ok ()) -> true
      | Ok (Error v), Ok (Error _) ->
          Mma_oracle.confirms ~out ~lhs ~rhs v
          || QCheck.Test.fail_reportf "witness warp %d %s not confirmed" v.Codegen.Mma_lower.warp
               v.Codegen.Mma_lower.missing
      | Error a, Error b -> a = b || QCheck.Test.fail_reportf "%S <> %S" a b
      | _ -> QCheck.Test.fail_report "verdicts differ")

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mma_lower"
    [
      ( "ownership",
        [
          Alcotest.test_case "operand layouts own their fragments" `Quick
            test_ownership_holds_for_operand_layouts;
          Alcotest.test_case "naive blocked violates" `Quick test_ownership_fails_for_naive_blocked;
          Alcotest.test_case "violation in a nonzero warp" `Quick test_violation_in_nonzero_warp;
          Alcotest.test_case "violation in warp 0's thread span" `Quick
            test_violation_in_thread_span;
        ] );
      ( "execution",
        [
          Alcotest.test_case "matches reference" `Quick test_execute_dot_matches_reference;
          Alcotest.test_case "rejects bad layouts" `Quick test_execute_dot_rejects_bad_layouts;
        ] );
      ( "properties",
        q [ prop_operand_triples_always_own; prop_dot_correct; prop_rank_check_matches_oracle ] );
    ]
