(* Tests for the rendering and diagnostics modules. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let layout_a =
  Blocked.make
    {
      shape = [| 16; 16 |];
      size_per_thread = [| 2; 2 |];
      threads_per_warp = [| 4; 8 |];
      warps_per_cta = [| 2; 1 |];
      order = [| 1; 0 |];
    }

(* {1 Render} *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_grid () =
  let g = Render.grid layout_a in
  let lines = String.split_on_char '\n' g |> List.filter (fun l -> l <> "") in
  check_int "16 rows" 16 (List.length lines);
  (* Figure 1a's corners: (0,0) is w0 t0 r0; row 8 starts warp 1. *)
  check_bool "top-left" true (contains (List.hd lines) "w0:t00:r0");
  check_bool "warp 1 in lower half" true (contains (List.nth lines 8) "w1:t00:r0");
  (* Table 1: (2,3) held by r1 of t9. *)
  let row2 = List.nth lines 2 in
  check_bool "(2,3) = w0:t09:r1" true (contains row2 "w0:t09:r1")

let test_memory_grid () =
  let g = Render.memory_grid (Shared.mma_swizzle ~vec:2 ~per_phase:1 ~max_phase:4 ~rows:4 ~cols:8) in
  let lines = String.split_on_char '\n' g |> List.filter (fun l -> l <> "") in
  check_int "4 rows" 4 (List.length lines);
  (* Row 0 is unswizzled: offsets 0..7. *)
  check_bool "row 0 starts at 0" true (contains (List.hd lines) "   0    1    2");
  (* Row 1 is phase-xored: it starts at offset 10, not 8. *)
  check_bool "row 1 swizzled" true
    (String.length (List.nth lines 1) >= 4 && String.sub (List.nth lines 1) 0 4 = "  10")

let test_render_rejects () =
  (match Render.grid (Layout.identity1d 3 ~in_dim:Dims.register ~out_dim:(Dims.dim 0)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "1-D layout must be rejected");
  match
    Render.grid (Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 128; 128 |])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized grid must be rejected"

(* {1 Check} *)

let test_check_distributed_ok () =
  check_int "layout A is clean" 0 (List.length (Check.distributed layout_a))

let test_check_broadcast_warns () =
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
  let issues = Check.distributed l in
  check_bool "broadcast warnings" true
    (List.exists (fun i -> i.Diagnostics.severity = Check.Warning) issues);
  check_int "no errors" 0 (List.length (Check.errors issues))

let test_check_bad_columns () =
  (* A column with two set bits: not a distributed layout. *)
  let l =
    Layout.make
      ~ins:[ (Dims.register, 2) ]
      ~outs:[ (Dims.dim 0, 2) ]
      ~bases:[ (Dims.register, [ [ (Dims.dim 0, 3) ]; [ (Dims.dim 0, 2) ] ]) ]
  in
  let issues = Check.errors (Check.distributed l) in
  check_bool "two-bit column reported" true
    (List.exists (fun i -> contains i.Diagnostics.message "2 set bits") issues);
  (* Duplicated columns. *)
  let dup =
    Layout.make
      ~ins:[ (Dims.register, 1); (Dims.lane, 1) ]
      ~outs:[ (Dims.dim 0, 1) ]
      ~bases:
        [
          (Dims.register, [ [ (Dims.dim 0, 1) ] ]);
          (Dims.lane, [ [ (Dims.dim 0, 1) ] ]);
        ]
  in
  check_bool "duplicate reported" true
    (List.exists
       (fun i -> contains i.Diagnostics.message "both map to")
       (Check.errors (Check.distributed dup)))

let test_check_not_surjective () =
  let l =
    Layout.make
      ~ins:[ (Dims.register, 1) ]
      ~outs:[ (Dims.dim 0, 2) ]
      ~bases:[ (Dims.register, [ [ (Dims.dim 0, 1) ] ]) ]
  in
  let issues = Check.errors (Check.distributed l) in
  check_bool "missing element named" true
    (List.exists (fun i -> contains i.Diagnostics.message "not surjective") issues)

let test_check_memory () =
  check_int "row major clean" 0
    (List.length (Check.errors (Check.memory (Shared.row_major ~shape:[| 8; 8 |]))));
  check_int "swizzle clean" 0
    (List.length
       (Check.errors
          (Check.memory (Shared.mma_swizzle ~vec:2 ~per_phase:1 ~max_phase:4 ~rows:8 ~cols:8))));
  (* An aliasing map. *)
  let bad =
    Layout.make
      ~ins:[ (Dims.offset, 2) ]
      ~outs:[ (Dims.dim 0, 2) ]
      ~bases:[ (Dims.offset, [ [ (Dims.dim 0, 1) ]; [ (Dims.dim 0, 1) ] ]) ]
  in
  check_bool "aliasing reported" true (Check.errors (Check.memory bad) <> [])

let test_check_convertible () =
  let a = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 32 |] in
  let b = Blocked.default ~elems_per_thread:2 ~warp_size:32 ~num_warps:4 [| 32; 32 |] in
  check_int "same CTA fine" 0 (List.length (Check.errors (Check.convertible ~src:a ~dst:b)));
  let c = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:2 [| 32; 32 |] in
  check_bool "warp count mismatch reported" true
    (Check.errors (Check.convertible ~src:a ~dst:c) <> []);
  let d = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 64 |] in
  check_bool "different spaces reported" true
    (Check.errors (Check.convertible ~src:a ~dst:d) <> [])

(* {1 Parse} *)

let test_parse_roundtrip () =
  let check_rt l =
    match Parse.of_string (Parse.to_string l) with
    | Ok l' -> check_bool "roundtrip" true (Layout.equal l' l)
    | Error e -> Alcotest.fail e
  in
  check_rt layout_a;
  check_rt (Mma.output ~bitwidth:32 ~warps:[| 2; 2 |] ~shape:[| 32; 32 |] ());
  check_rt (Shared.mma_swizzle ~vec:4 ~per_phase:2 ~max_phase:4 ~rows:16 ~cols:32);
  check_rt (Sliced.make layout_a ~dim:1)

let test_parse_literal () =
  let s =
    "register=[(dim1:1),(dim0:1)] lane=[(dim1:2),(dim1:4),(dim1:8),(dim0:2),(dim0:4)] \
     warp=[(dim0:8)] -> dim0:16, dim1:16"
  in
  match Parse.of_string s with
  | Ok l -> check_bool "parses to layout A" true (Layout.equal l layout_a)
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad =
    [
      "register=[(dim0:1) -> dim0:2";
      "-> dim0:3";
      "register=[(nope:1)] -> dim0:2";
      "register=[(dim0:4)] -> dim0:2";
      "";
    ]
  in
  List.iter
    (fun s ->
      match Parse.of_string s with
      | Ok _ -> Alcotest.failf "should reject %S" s
      | Error _ -> ())
    bad

let () =
  Alcotest.run "diagnostics"
    [
      ( "render",
        [
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "memory grid" `Quick test_memory_grid;
          Alcotest.test_case "rejects bad inputs" `Quick test_render_rejects;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean distributed" `Quick test_check_distributed_ok;
          Alcotest.test_case "broadcast warns" `Quick test_check_broadcast_warns;
          Alcotest.test_case "bad columns" `Quick test_check_bad_columns;
          Alcotest.test_case "not surjective" `Quick test_check_not_surjective;
          Alcotest.test_case "memory layouts" `Quick test_check_memory;
          Alcotest.test_case "convertible" `Quick test_check_convertible;
        ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "literal layout A" `Quick test_parse_literal;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
    ]
