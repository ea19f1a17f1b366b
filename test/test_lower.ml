(* Tests for the pseudo-ISA interpreter and the lowering of conversion
   plans to instruction streams — the end-to-end path: algebra -> plan
   -> instructions -> simulated hardware state. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

let blocked ?(warps = [| 1; 1 |]) ?(order = [| 1; 0 |]) ~spt ~tpw shape =
  Blocked.make
    { shape; size_per_thread = spt; threads_per_warp = tpw; warps_per_cta = warps; order }

(* {1 ISA interpreter} *)

let tiny_program body = { Gpusim.Isa.warps = 1; lanes = 4; smem_elems = 16; body }

(* Slot [s] of lane [l] in the single warp of a [tiny_program] state. *)
let reg (st : Gpusim.Isa.state) l s = st.Gpusim.Isa.regs.((l * st.Gpusim.Isa.slots) + s)
let set_reg (st : Gpusim.Isa.state) l s v = st.Gpusim.Isa.regs.((l * st.Gpusim.Isa.slots) + s) <- v
let lanes4 f = List.iter f [ 0; 1; 2; 3 ]

let test_isa_mov () =
  let p = tiny_program [ Gpusim.Isa.Mov { dst = 1; src = 0 } ] in
  let st = Gpusim.Isa.make_state p ~slots:2 in
  lanes4 (fun l -> set_reg st l 0 (100 + l));
  ignore (Gpusim.Isa.run m p st);
  check_int "lane 2 copied" 102 (reg st 2 1)

let test_isa_shfl () =
  (* Rotate values one lane to the left. *)
  let src_lane = [| [| 1; 2; 3; 0 |] |] in
  let keep = [| Array.make 4 true |] in
  let p = tiny_program [ Gpusim.Isa.Shfl_idx { dst = 1; src = 0; src_lane; keep } ] in
  let st = Gpusim.Isa.make_state p ~slots:2 in
  lanes4 (fun l -> set_reg st l 0 (10 * l));
  let cost = Gpusim.Isa.run m p st in
  check_int "lane0 got lane1" 10 (reg st 0 1);
  check_int "lane3 got lane0" 0 (reg st 3 1);
  check_int "one shuffle" 1 cost.Gpusim.Cost.shuffles

let test_isa_sel_scatter () =
  let sel = [| [| 0; -1; 0; 0 |] |] in
  let scat = [| [| 1; 1; -1; 1 |] |] in
  let p =
    tiny_program
      [ Gpusim.Isa.Sel { dst = 2; src_slot = sel }; Gpusim.Isa.Scatter { src = 2; dst_slot = scat } ]
  in
  let st = Gpusim.Isa.make_state p ~slots:3 in
  lanes4 (fun l -> set_reg st l 0 (l + 1));
  lanes4 (fun l -> set_reg st l 1 (-1));
  ignore (Gpusim.Isa.run m p st);
  check_int "lane0 scattered" 1 (reg st 0 1);
  (* Lane 1's select was skipped, so its stage register still holds the
     initial 0 that the scatter then commits. *)
  check_int "lane1 commits stale stage" 0 (reg st 1 1);
  check_int "lane2 scatter skipped" (-1) (reg st 2 1)

let test_isa_smem_roundtrip () =
  let addr = Isa_fuzz.affine 0 [ 2; 4 ] in
  let p =
    tiny_program
      [
        Gpusim.Isa.St_shared { slots = [ 0; 1 ]; addr; byte_width = 4 };
        Gpusim.Isa.Bar_sync;
        Gpusim.Isa.Ld_shared { slots = [ 3; 2 ]; addr; byte_width = 4 };
      ]
  in
  let st = Gpusim.Isa.make_state p ~slots:4 in
  lanes4 (fun l ->
      set_reg st l 0 (100 + l);
      set_reg st l 1 (200 + l));
  let cost = Gpusim.Isa.run m p st in
  (* Slot order in the load is swapped: slot 3 gets the first element. *)
  check_int "lane1 slot3" 101 (reg st 1 3);
  check_int "lane1 slot2" 201 (reg st 1 2);
  check_int "barrier" 1 cost.Gpusim.Cost.barriers;
  check_int "two smem insts" 2 cost.Gpusim.Cost.smem_insts;
  check_bool "conflict-free" true (cost.Gpusim.Cost.smem_wavefronts = 2)

let test_isa_bounds () =
  let addr = Isa_fuzz.affine 100 [ 0; 0 ] in
  let p = tiny_program [ Gpusim.Isa.St_shared { slots = [ 0 ]; addr; byte_width = 4 } ] in
  let st = Gpusim.Isa.make_state p ~slots:1 in
  match Gpusim.Isa.run m p st with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "out-of-range store must fail"

(* A fault and an out-of-range slot in one instruction: whichever the
   (warp, lane, element) loop reaches first raises, the slot as
   [Invalid_argument], the fault as its [Failure]. *)
let test_isa_first_error () =
  let raised body =
    let p = tiny_program body in
    match Gpusim.Isa.run m p (Gpusim.Isa.make_state p ~slots:2) with
    | _ -> "none"
    | exception Failure msg -> msg
    | exception Invalid_argument _ -> "slot"
  in
  let store slots base cols = Gpusim.Isa.St_shared { slots; addr = Isa_fuzz.affine base cols; byte_width = 4 } in
  let shfl ~dst lane keep_lane =
    Gpusim.Isa.Shfl_idx
      {
        dst;
        src = 0;
        src_lane = [| Array.init 4 (fun l -> if l = lane then 9 else l) |];
        keep = [| Array.init 4 (fun l -> l = keep_lane) |];
      }
  in
  let check what want body = Alcotest.(check string) what want (raised body) in
  check "slot at lane 0 before address at lane 1" "slot" [ store [ 5 ] 0 [ 100; 0 ] ];
  (* 15 elements: lane 0's aligned pair [14; 15] ends past the last. *)
  Alcotest.(check string)
    "address of element 1 before its slot" "st.shared: address out of range"
    (let p = { (tiny_program [ store [ 0; 5 ] 14 [ 0; 0 ] ]) with Gpusim.Isa.smem_elems = 15 } in
     match Gpusim.Isa.run m p (Gpusim.Isa.make_state p ~slots:2) with
     | _ -> "none"
     | exception Failure msg -> msg
     | exception Invalid_argument _ -> "slot");
  check "bad source lane 1 before the kept lane 2" "shfl: source lane out of range"
    [ shfl ~dst:7 1 2 ];
  check "kept lane 2 before bad source lane 3" "slot" [ shfl ~dst:7 3 2 ];
  check "unkept lanes never check the destination slot" "none" [ shfl ~dst:7 (-1) (-1) ];
  check "wrong shape before any slot" "ld.shared: per-warp/lane table has wrong shape"
    [ Gpusim.Isa.Ld_shared { slots = [ 5 ]; addr = Isa_fuzz.affine 0 [ 1 ]; byte_width = 4 } ]

(* {1 Lowering} *)

let roundtrip ?(byte_width = 4) ~src ~dst () =
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width in
  let d = Gpusim.Dist.init src ~f:(fun i -> (i * 17) + 3) in
  let d', cost = Codegen.Lower.run m plan d in
  check_bool
    (Codegen.Conversion.mechanism_name plan.mechanism ^ ": data converted")
    true
    (Gpusim.Dist.consistent_with d' ~f:(fun i -> (i * 17) + 3));
  (plan, cost)

let test_lower_noop () =
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let plan, cost = roundtrip ~src:l ~dst:l () in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.No_op -> ()
  | _ -> Alcotest.fail "expected no-op");
  check_int "no shuffles" 0 cost.Gpusim.Cost.shuffles;
  check_int "no smem" 0 cost.Gpusim.Cost.smem_insts

let test_lower_register_permute () =
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let swapped =
    Layout.make ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
      ~bases:
        (List.map
           (fun (d, bits) ->
             let images = List.init bits (Layout.basis l d) in
             (d, if d = Dims.register then List.rev images else images))
           (Layout.in_dims l))
  in
  let plan, cost = roundtrip ~src:l ~dst:swapped () in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Register_permute -> ()
  | mech -> Alcotest.failf "expected register permute, got %s" (Codegen.Conversion.mechanism_name mech));
  check_int "no smem traffic" 0 cost.Gpusim.Cost.smem_insts

let test_lower_shuffle () =
  let src = Mma.output ~bitwidth:32 ~warps:[| 1; 1 |] ~shape:[| 16; 16 |] () in
  let dst = blocked ~spt:[| 1; 8 |] ~tpw:[| 16; 2 |] [| 16; 16 |] in
  let plan, cost = roundtrip ~src ~dst () in
  match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Warp_shuffle p ->
      (* Interpreter counts warps x rounds x payload shuffles. *)
      let v = List.length p.Codegen.Shuffle.vec in
      check_int "shuffle count" (p.Codegen.Shuffle.rounds * (1 lsl v)) cost.Gpusim.Cost.shuffles
  | mech -> Alcotest.failf "expected shuffle, got %s" (Codegen.Conversion.mechanism_name mech)

let test_lower_shared () =
  let src = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let dst = blocked ~warps:[| 1; 2 |] ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 16; 16 |] in
  let plan, cost = roundtrip ~src ~dst () in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory _ -> ()
  | mech -> Alcotest.failf "expected shared memory, got %s" (Codegen.Conversion.mechanism_name mech));
  check_int "one barrier" 1 cost.Gpusim.Cost.barriers;
  check_bool "stores and loads" true (cost.Gpusim.Cost.smem_insts > 0)

let test_lowered_wavefronts_match_prediction () =
  (* The interpreter's bank accounting must agree with the planner's
     Lemma 9.4 prediction for 4-byte elements. *)
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let dst = blocked ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  let sw = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 in
  let plan =
    {
      Codegen.Conversion.src;
      dst;
      byte_width = 4;
      mechanism = Codegen.Conversion.Shared_memory sw;
    }
  in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory sw ->
      let d = Gpusim.Dist.init src ~f:Fun.id in
      let _, cost = Codegen.Lower.run m plan d in
      let insts dist = max 1 (Layout.in_size dist Dims.register / (1 lsl sw.Codegen.Swizzle_opt.vec_bits)) in
      let expected =
        (insts src * sw.Codegen.Swizzle_opt.store_wavefronts)
        + (insts dst * sw.Codegen.Swizzle_opt.load_wavefronts)
      in
      check_int "wavefronts" expected cost.Gpusim.Cost.smem_wavefronts
  | _ -> Alcotest.fail "expected shared memory")

let test_program_printing () =
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 16; 16 |] in
  let dst = blocked ~spt:[| 4; 1 |] ~order:[| 0; 1 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let program, _ = Codegen.Lower.conversion m plan in
  let s = Format.asprintf "%a" Gpusim.Isa.pp program in
  check_bool "mentions warps" true (String.length s > 0);
  let moves =
    List.filter
      (fun i -> List.mem (Gpusim.Isa.instr_class i) [ "st_shared"; "ld_shared"; "shfl" ])
      program.Gpusim.Isa.body
  in
  check_bool "has stores and loads or shuffles" true (moves <> [])

let test_lower_compressed_shuffle () =
  (* Layouts that broadcast in registers: the plain shuffle planner
     rejects them, the compressed mechanism handles them. *)
  let grow l = Layout.resize_in l Dims.register (Layout.in_bits l Dims.register + 1) in
  let src = grow (blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |]) in
  let dst = grow (blocked ~spt:[| 1; 4 |] ~tpw:[| 16; 2 |] [| 16; 16 |]) in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Warp_shuffle_compressed _ -> ()
  | mech ->
      Alcotest.failf "expected compressed shuffle, got %s"
        (Codegen.Conversion.mechanism_name mech));
  (* Lowered instruction stream. *)
  let d = Gpusim.Dist.init src ~f:(fun i -> i + 100) in
  let d', cost = Codegen.Lower.run m plan d in
  check_bool "lowered execute" true (Gpusim.Dist.consistent_with d' ~f:(fun i -> i + 100));
  check_bool "used shuffles, not shared memory" true
    (cost.Gpusim.Cost.shuffles > 0 && cost.Gpusim.Cost.smem_insts = 0)

(* A shuffle plan whose round sends two payloads into one lane is not a
   warp shuffle: with G replaced by E, the round over span(I u E) sends
   destination lane 0 both element 0 and element 4.  The lowering must
   reject it rather than let the second write win, and the certifier
   reports the rejection as LL652. *)
let test_lower_shuffle_two_payloads_per_lane () =
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
  let p =
    match Codegen.Shuffle.plan ~src ~dst ~byte_width:4 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  check_bool "G pairs lane 4 with lane 1" true (p.Codegen.Shuffle.g = [ 5 ]);
  let broken = { p with Codegen.Shuffle.g = [ 4 ] } in
  let plan =
    {
      Codegen.Conversion.src;
      dst;
      byte_width = 4;
      mechanism = Codegen.Conversion.Warp_shuffle broken;
    }
  in
  (match Codegen.Lower.conversion m plan with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a lane receiving two payloads in one round must fail to lower");
  let cert = Analysis.Transval.certify_plan m plan in
  check_bool "LL652" true
    (List.exists
       (fun (d : Diagnostics.t) -> d.Diagnostics.code = "LL652")
       (Analysis.Transval.diagnostics cert))

(* §5.4: the warp columns of the two layouts agree, so every warp runs
   the same round.  Each Sel/Shfl_idx/Scatter of a suite shuffle program
   has one row for all warps and moves at least one lane, and with
   4-byte elements the program's shuffles are the model's. *)
let test_warp_uniform_rounds () =
  let uniform t = Array.for_all (fun row -> row = t.(0)) t in
  let checked = ref 0 in
  List.iter
    (fun (r : Suite_plans.row) ->
      let machine = r.Suite_plans.machine in
      List.iter
        (fun (plan : Codegen.Conversion.plan) ->
          match plan.Codegen.Conversion.mechanism with
          | Codegen.Conversion.Warp_shuffle _ | Codegen.Conversion.Warp_shuffle_compressed _ ->
              incr checked;
              let program, _ = Codegen.Lower.conversion machine plan in
              List.iter
                (function
                  | Gpusim.Isa.Sel { src_slot = t; _ } | Gpusim.Isa.Scatter { dst_slot = t; _ } ->
                      check_bool "slot row shared by all warps" true (uniform t);
                      check_bool "slot row moves a lane" true (Array.exists (fun s -> s >= 0) t.(0))
                  | Gpusim.Isa.Shfl_idx { src_lane; keep; _ } ->
                      check_bool "lane row shared by all warps" true
                        (uniform src_lane && uniform keep);
                      check_bool "shuffle keeps a lane" true (Array.exists Fun.id keep.(0))
                  | _ -> ())
                program.Gpusim.Isa.body;
              if plan.Codegen.Conversion.byte_width = 4 then
                check_int "static shuffles = model shuffles"
                  (Codegen.Conversion.cost machine plan).Gpusim.Cost.shuffles
                  (Analysis.Static_cost.cost machine program).Gpusim.Cost.shuffles
          | _ -> ())
        r.Suite_plans.plans)
    (Suite_plans.rows () @ Suite_plans.pair_rows ());
  check_bool "the suite has shuffle plans" true (!checked > 0)

let test_lower_gather () =
  (* A gather staying within the warp: lanes on the feature dim, the
     gathered axis covered by registers and a few lanes. *)
  let l = blocked ~warps:[| 1; 2 |] ~spt:[| 2; 1 |] ~tpw:[| 8; 4 |] [| 16; 8 |] in
  let axis = 0 in
  (match Codegen.Gather.plan l ~axis with
  | Codegen.Gather.Warp_shuffle _ -> ()
  | Codegen.Gather.Shared_fallback -> Alcotest.fail "expected in-warp gather");
  let src = Gpusim.Dist.init l ~f:(fun v -> (v * 7) + 1) in
  let index =
    Gpusim.Dist.init l ~f:(fun v ->
        (* a data-dependent permutation of rows *)
        (v * 5) + 3)
  in
  match Codegen.Lower.gather m ~src ~index ~axis with
  | Error e -> Alcotest.fail e
  | Ok (program, map) ->
      let st = Codegen.Lower.load_state program map src in
      let cost = Gpusim.Isa.run m program st in
      let got = Codegen.Lower.store_dist program map ~dst:l st in
      let expected = Codegen.Gather.execute ~src ~index ~axis in
      check_bool "lowered gather equals reference" true
        (got.Gpusim.Dist.data = expected.Gpusim.Dist.data);
      check_bool "used shuffles" true (cost.Gpusim.Cost.shuffles > 0);
      check_int "no shared memory" 0 cost.Gpusim.Cost.smem_insts

let test_lower_reduce () =
  (* Axis split across registers, lanes and warps: the lowering must
     produce an all-reduce whose every copy agrees (checked by reading
     back through the non-injective sliced layout). *)
  let l =
    blocked ~warps:[| 2; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 64 |]
  in
  let axis = 1 in
  let d = Gpusim.Dist.init l ~f:(fun v -> (v mod 13) + 1) in
  let program, map, sliced = Codegen.Lower.reduce m ~src:d ~axis in
  let st = Codegen.Lower.load_state program map d in
  let cost = Gpusim.Isa.run m program st in
  let out = Codegen.Lower.store_dist program map ~dst:sliced st in
  (* Reference row sums. *)
  let rows = 16 and cols = 64 in
  let expected = Array.make rows 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      expected.(i) <- expected.(i) + ((((i * cols) + j) mod 13) + 1)
    done
  done;
  check_bool "all-reduce correct and consistent" true
    (Gpusim.Dist.consistent_with out ~f:(fun logical -> expected.(logical)));
  (* Axis lanes exist, so shuffles were used; warps split the axis, so
     shared memory was used too. *)
  check_bool "used shuffles" true (cost.Gpusim.Cost.shuffles > 0);
  check_bool "used shared memory" true (cost.Gpusim.Cost.smem_insts > 0)

let test_lower_reduce_warp_local () =
  (* Axis confined to registers and lanes: no shared memory at all. *)
  let l = blocked ~warps:[| 4; 1 |] ~spt:[| 1; 4 |] ~tpw:[| 4; 8 |] [| 16; 32 |] in
  let d = Gpusim.Dist.init l ~f:(fun v -> v land 7) in
  let program, map, sliced = Codegen.Lower.reduce m ~src:d ~axis:1 in
  let st = Codegen.Lower.load_state program map d in
  let cost = Gpusim.Isa.run m program st in
  let out = Codegen.Lower.store_dist program map ~dst:sliced st in
  let rows = 16 and cols = 32 in
  let expected = Array.make rows 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      expected.(i) <- expected.(i) + (((i * cols) + j) land 7)
    done
  done;
  check_bool "correct" true (Gpusim.Dist.consistent_with out ~f:(fun v -> expected.(v)));
  check_int "no shared memory" 0 cost.Gpusim.Cost.smem_insts

let test_lower_reduce_max () =
  let l = blocked ~warps:[| 2; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 64 |] in
  let d = Gpusim.Dist.init l ~f:(fun v -> (v * 7919) mod 1000) in
  let program, map, sliced = Codegen.Lower.reduce ~op:`Max m ~src:d ~axis:1 in
  let st = Codegen.Lower.load_state program map d in
  ignore (Gpusim.Isa.run m program st);
  let out = Codegen.Lower.store_dist program map ~dst:sliced st in
  let rows = 16 and cols = 64 in
  let expected = Array.make rows min_int in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      expected.(i) <- max expected.(i) ((((i * cols) + j) * 7919) mod 1000)
    done
  done;
  check_bool "row max correct" true
    (Gpusim.Dist.consistent_with out ~f:(fun v -> expected.(v)))

let test_lower_scan () =
  (* Inclusive row scan over a layout whose axis spans registers and
     lanes. *)
  let l = blocked ~warps:[| 4; 1 |] ~spt:[| 1; 4 |] ~tpw:[| 4; 8 |] [| 16; 32 |] in
  let d = Gpusim.Dist.init l ~f:(fun v -> (v mod 5) + 1) in
  match Codegen.Lower.scan m ~src:d ~axis:1 with
  | Error e -> Alcotest.fail e
  | Ok (program, map) ->
      let st = Codegen.Lower.load_state program map d in
      let cost = Gpusim.Isa.run m program st in
      let out = Codegen.Lower.store_dist program map ~dst:l st in
      let cols = 32 in
      let expected logical =
        let i = logical / cols and j = logical mod cols in
        let acc = ref 0 in
        for jj = 0 to j do
          acc := !acc + ((((i * cols) + jj) mod 5) + 1)
        done;
        !acc
      in
      check_bool "inclusive scan correct" true (Gpusim.Dist.consistent_with out ~f:expected);
      check_bool "used shuffles" true (cost.Gpusim.Cost.shuffles > 0);
      check_int "no shared memory" 0 cost.Gpusim.Cost.smem_insts

let test_lower_scan_rejects_cross_warp () =
  let l = blocked ~warps:[| 1; 4 |] ~spt:[| 1; 1 |] ~tpw:[| 4; 8 |] [| 16; 32 |] in
  let d = Gpusim.Dist.init l ~f:Fun.id in
  match Codegen.Lower.scan m ~src:d ~axis:1 with
  | Ok _ -> Alcotest.fail "warps on the axis must be rejected"
  | Error _ -> ()

let test_lower_rank3_conversion () =
  (* Conversions and their lowering are rank-generic. *)
  let a = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 4; 32; 64 |] in
  let b =
    Blocked.default ~order:[| 0; 1; 2 |] ~elems_per_thread:2 ~warp_size:32 ~num_warps:4
      [| 4; 32; 64 |]
  in
  let plan = Codegen.Conversion.plan m ~src:a ~dst:b ~byte_width:4 in
  let d = Gpusim.Dist.init a ~f:(fun i -> i * 3) in
  let d', cost = Codegen.Lower.run m plan d in
  check_bool "rank-3 lowered conversion" true
    (Gpusim.Dist.consistent_with d' ~f:(fun i -> i * 3));
  check_bool "cost accounted" true (Gpusim.Cost.estimate m cost > 0.)

(* {1 Properties} *)

let arb_pair =
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
             let* warps = oneofl [ [| 1; 1 |]; [| 2; 1 |]; [| 1; 2 |] ] in
             return
               (Blocked.make
                  {
                    shape = [| size; size |];
                    size_per_thread = spt;
                    threads_per_warp = tpw;
                    warps_per_cta = warps;
                    order = ord;
                  }));
            (let* warps = oneofl [ [| 1; 1 |]; [| 2; 1 |] ] in
             return (Mma.output ~bitwidth:32 ~warps ~shape:[| size; size |] ()));
          ]
      in
      let* a = layout_gen and* b = layout_gen in
      return (a, b))
  in
  QCheck.make gen ~print:(fun (a, b) -> Layout.to_string a ^ "\n->\n" ^ Layout.to_string b)

let prop_lowered_gather_correct =
  let gen =
    QCheck.Gen.(
      let* rows = oneofl [ 8; 16 ] in
      let* cols = oneofl [ 128; 256 ] in
      let* warps = oneofl [ 1; 2 ] in
      let* salt = int_bound 1000 in
      return (rows, cols, warps, salt))
  in
  QCheck.Test.make ~name:"lowered gathers equal the reference" ~count:40
    (QCheck.make gen ~print:(fun (r, c, w, s) -> Printf.sprintf "%dx%d w%d salt%d" r c w s))
    (fun (rows, cols, warps, salt) ->
      let l =
        Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:warps [| rows; cols |]
      in
      match Codegen.Gather.plan l ~axis:0 with
      | Codegen.Gather.Shared_fallback -> QCheck.assume_fail ()
      | Codegen.Gather.Warp_shuffle _ -> (
          let src = Gpusim.Dist.init l ~f:(fun v -> (v * 3) + salt) in
          let index = Gpusim.Dist.init l ~f:(fun v -> (v + salt) mod rows) in
          match Codegen.Lower.gather m ~src ~index ~axis:0 with
          | Error _ -> false
          | Ok (program, map) ->
              let st = Codegen.Lower.load_state program map src in
              ignore (Gpusim.Isa.run m program st);
              let got = Codegen.Lower.store_dist program map ~dst:l st in
              let expected = Codegen.Gather.execute ~src ~index ~axis:0 in
              got.Gpusim.Dist.data = expected.Gpusim.Dist.data))

let prop_lowered_conversion_correct =
  QCheck.Test.make ~name:"lowered instruction streams convert correctly" ~count:80 arb_pair
    (fun (src, dst) ->
      QCheck.assume
        (Layout.in_size src Dims.warp = Layout.in_size dst Dims.warp
        && Layout.in_size src Dims.lane = Layout.in_size dst Dims.lane);
      let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
      let d = Gpusim.Dist.init src ~f:(fun i -> i lxor 0x1234) in
      let d', _ = Codegen.Lower.run m plan d in
      Gpusim.Dist.consistent_with d' ~f:(fun i -> i lxor 0x1234))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "lower"
    [
      ( "isa",
        [
          Alcotest.test_case "mov" `Quick test_isa_mov;
          Alcotest.test_case "shfl" `Quick test_isa_shfl;
          Alcotest.test_case "sel/scatter" `Quick test_isa_sel_scatter;
          Alcotest.test_case "smem roundtrip" `Quick test_isa_smem_roundtrip;
          Alcotest.test_case "bounds checking" `Quick test_isa_bounds;
          Alcotest.test_case "first fault or slot error raises" `Quick test_isa_first_error;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "no-op" `Quick test_lower_noop;
          Alcotest.test_case "register permute" `Quick test_lower_register_permute;
          Alcotest.test_case "warp shuffle" `Quick test_lower_shuffle;
          Alcotest.test_case "shared memory" `Quick test_lower_shared;
          Alcotest.test_case "wavefronts match prediction" `Quick
            test_lowered_wavefronts_match_prediction;
          Alcotest.test_case "printing" `Quick test_program_printing;
          Alcotest.test_case "gather" `Quick test_lower_gather;
          Alcotest.test_case "compressed shuffle" `Quick test_lower_compressed_shuffle;
          Alcotest.test_case "two payloads per lane fail to lower" `Quick
            test_lower_shuffle_two_payloads_per_lane;
          Alcotest.test_case "warp-uniform shuffle rounds" `Quick test_warp_uniform_rounds;
          Alcotest.test_case "reduce all-axes" `Quick test_lower_reduce;
          Alcotest.test_case "reduce warp-local" `Quick test_lower_reduce_warp_local;
          Alcotest.test_case "reduce max" `Quick test_lower_reduce_max;
          Alcotest.test_case "scan" `Quick test_lower_scan;
          Alcotest.test_case "scan rejects cross-warp" `Quick test_lower_scan_rejects_cross_warp;
          Alcotest.test_case "rank-3 conversion" `Quick test_lower_rank3_conversion;
        ] );
      ( "properties",
        q
          [
            prop_lowered_conversion_correct;
            prop_lowered_gather_correct;
          ] );
    ]
