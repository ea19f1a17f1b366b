(* The static≡dynamic cost contract: Static_cost must price every ISA
   program exactly as the interpreter accounts it, and Resource_check
   must flag ill-resourced programs.  Both sides fold [Isa.price], so
   each is held against [Cost_oracle], an independent restatement of
   the price.  Three layers:

   - a 216-row golden sweep (27 kernels x 4 machines x 2 modes) over
     every lowered conversion plan;
   - randomized programs, both engine-lowered (the interp-fuzz TIR
     motifs: elementwise chains, the reduce/broadcast softmax motif,
     gathers, dots) and raw random ISA streams, seed-replayable with
     STATIC_COST_FUZZ_SEED=N;
   - fault injection: perturbing an address immediate or dropping an
     instruction must produce a cost distinguishable from the
     original's. *)

open Linear_layout
module Isa = Gpusim.Isa
module Static_cost = Analysis.Static_cost
module Resource_check = Analysis.Resource_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.rtx4090

let cost_pp c = Format.asprintf "%a" Gpusim.Cost.pp c

let check_cost_eq what a b =
  if a <> b then Alcotest.failf "%s: static %s <> interpreted %s" what (cost_pp a) (cost_pp b)

(* [Static_cost.cost] and [Isa.run] on a fresh [slots]-slot state both
   equal the oracle's price of [p]. *)
let check_oracle what machine ~slots p =
  let want = Cost_oracle.cost machine p in
  let against side got =
    if got <> want then
      Alcotest.failf "%s: %s %s <> oracle %s" what side (cost_pp got) (cost_pp want)
  in
  against "static" (Static_cost.cost machine p);
  against "interpreted" (Isa.run machine p (Isa.make_state p ~slots))

(* {1 The 216-row golden differential} *)

let test_golden_differential () =
  let rows = ref 0 and lowered = ref 0 in
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          List.iter
            (fun mode ->
              incr rows;
              let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
              let r = Tir.Engine.run machine ~mode prog in
              List.iter
                (fun (c : Tir.Engine.conversion_info) ->
                  match c.Tir.Engine.plan with
                  | None -> ()
                  | Some plan -> (
                      match Static_cost.lower_plan machine plan with
                      | None -> ()
                      | Some (program, sm) ->
                          incr lowered;
                          check_oracle
                            (Printf.sprintf "%s/%s/%s" k.Tir.Kernels.name
                               machine.Gpusim.Machine.name c.Tir.Engine.mechanism)
                            machine ~slots:sm.Codegen.Lower.total_slots program;
                          (* The attribution table must sum to the total. *)
                          let a = Static_cost.analyze machine program in
                          let sum = Gpusim.Cost.zero () in
                          List.iter
                            (fun (a : Static_cost.attribution) ->
                              Gpusim.Cost.add sum a.Static_cost.cost)
                            a.Static_cost.per_instr;
                          check_cost_eq
                            (Printf.sprintf "%s attribution sum" k.Tir.Kernels.name)
                            sum a.Static_cost.total))
                r.Tir.Engine.conversions)
            [ Tir.Engine.Linear; Tir.Engine.Legacy_mode ])
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras;
  check_int "216 rows" 216 !rows;
  check_bool "some plans lowered" true (!lowered > 100)

(* {1 Randomized programs} *)

let fuzz_seed =
  match Sys.getenv_opt "STATIC_COST_FUZZ_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> failwith (Printf.sprintf "STATIC_COST_FUZZ_SEED=%S is not an integer" s))
  | None ->
      Random.self_init ();
      Random.bits ()

(* The interp-fuzz TIR motifs (elementwise chains, reduce/broadcast,
   gather, dot), driven through the engine so the analyzer sees
   realistic lowered conversion streams. *)
let fuzz_tir_program st =
  let p = Tir.Program.create () in
  let shape = [| 32; 32 |] in
  let counter = ref 0 in
  let fresh pfx =
    incr counter;
    Printf.sprintf "%s%d" pfx !counter
  in
  let load ~dtype pfx = Tir.Program.load p ~name:(fresh pfx) ~shape ~dtype () in
  let pool = ref [ load ~dtype:Tensor_lib.Dtype.F32 "x" ] in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let push id = pool := id :: !pool in
  let steps = 4 + Random.State.int st 5 in
  for _ = 1 to steps do
    match Random.State.int st 5 with
    | 0 -> push (Tir.Program.elementwise p ~name:"exp" [ pick () ])
    | 1 -> push (Tir.Program.elementwise p ~name:"add" [ pick (); pick () ])
    | 2 ->
        let axis = Random.State.int st 2 in
        let r = Tir.Program.reduce p (pick ()) ~axis in
        let b = Tir.Program.broadcast p (Tir.Program.expand_dims p r ~axis) ~shape in
        push (Tir.Program.elementwise p ~name:"div" [ pick (); b ])
    | 3 ->
        let idx = load ~dtype:Tensor_lib.Dtype.I32 "idx" in
        push (Tir.Program.gather p ~src:(pick ()) ~index:idx ~axis:(Random.State.int st 2))
    | _ ->
        let a = load ~dtype:Tensor_lib.Dtype.F16 "a" in
        let b = load ~dtype:Tensor_lib.Dtype.F16 "b" in
        push (Tir.Program.dot p ~a ~b ~acc:Tensor_lib.Dtype.F32)
  done;
  ignore (Tir.Program.store p (pick ()));
  p

let test_fuzz_engine_lowered () =
  Printf.printf "static-cost fuzz seed: %d (replay with STATIC_COST_FUZZ_SEED=%d)\n%!"
    fuzz_seed fuzz_seed;
  let st = Random.State.make [| fuzz_seed |] in
  for i = 1 to 10 do
    let prog = fuzz_tir_program st in
    let r = Tir.Engine.run m ~mode:Tir.Engine.Linear prog in
    List.iter
      (fun (c : Tir.Engine.conversion_info) ->
        match c.Tir.Engine.plan with
        | None -> ()
        | Some plan -> (
            match Static_cost.lower_plan m plan with
            | None -> ()
            | Some (program, sm) ->
                check_oracle
                  (Printf.sprintf "fuzz tir #%d (replay with STATIC_COST_FUZZ_SEED=%d)" i
                     fuzz_seed)
                  m ~slots:sm.Codegen.Lower.total_slots program))
      r.Tir.Engine.conversions
  done

let tbl = Isa_fuzz.tbl

(* The address map of thread [t]'s element [base + t], for [threads]
   threads (a power of two). *)
let ids ?(base = 0) threads =
  Isa_fuzz.affine base (List.init (Isa_fuzz.index_bits threads) (fun j -> 1 lsl j))
let fuzz_isa_program = Isa_fuzz.fuzz_isa_program

let test_fuzz_raw_isa () =
  let st = Random.State.make [| fuzz_seed + 1 |] in
  List.iter
    (fun machine ->
      for i = 1 to 50 do
        let p, slots = fuzz_isa_program st in
        check_oracle
          (Printf.sprintf "raw isa #%d on %s (replay with STATIC_COST_FUZZ_SEED=%d)" i
             machine.Gpusim.Machine.name fuzz_seed)
          machine ~slots p;
        check_int
          (Printf.sprintf "differential clean #%d" i)
          0
          (List.length (Static_cost.differential machine ~slots p))
      done)
    Gpusim.Machine.all_with_extras

(* {1 Fault injection} *)

(* A conflict-free single-warp store: lane l writes element l. *)
let store_program ~lanes ~smem_elems =
  {
    Isa.warps = 1;
    lanes;
    smem_elems;
    body =
      [
        Isa.St_shared
          { slots = [ 0 ]; addr = ids lanes; byte_width = 4 };
      ];
  }

let test_perturbed_address_detected () =
  let p = store_program ~lanes:32 ~smem_elems:64 in
  (* Move lane bit 0's image from word 1 to word 32: lane 1 collides
     with lane 0's bank (word 32 lands in bank 0 next to word 0), and so
     does every odd lane with its even neighbour, so the interpreter now
     measures an extra wavefront. *)
  let p' =
    {
      p with
      Isa.body =
        [
          Isa.St_shared
            {
              slots = [ 0 ];
              addr = Isa_fuzz.affine 0 [ 32; 2; 4; 8; 16 ];
              byte_width = 4;
            };
        ];
    }
  in
  let static_orig = Static_cost.cost m p in
  let interp_perturbed = Isa.run m p' (Isa.make_state p' ~slots:1) in
  check_bool "divergence detected" true (static_orig <> interp_perturbed);
  (* And the pricing tracks the perturbation exactly: both programs
     are priced as the oracle prices them. *)
  check_oracle "original program" m ~slots:1 p;
  check_oracle "perturbed program" m ~slots:1 p'

let all_classes_program =
  let lanes = 8 in
  {
    Isa.warps = 2;
    lanes;
    smem_elems = 64;
    body =
      [
        Isa.Mov { dst = 1; src = 0 };
        Isa.Bin { op = `Add; dst = 2; a = 0; b = 1 };
        Isa.Sel { dst = 3; src_slot = tbl 2 lanes (fun _ l -> if l mod 2 = 0 then 2 else -1) };
        Isa.Scatter { src = 3; dst_slot = tbl 2 lanes (fun _ l -> if l mod 2 = 0 then 4 else -1) };
        Isa.Shfl_idx
          {
            dst = 5;
            src = 2;
            src_lane = tbl 2 lanes (fun _ l -> (l + 1) mod lanes);
            keep = tbl 2 lanes (fun _ _ -> true);
          };
        Isa.St_shared { slots = [ 5 ]; addr = ids (2 * lanes); byte_width = 4 };
        Isa.Bar_sync;
        Isa.Ld_shared { slots = [ 6 ]; addr = ids (2 * lanes); byte_width = 4 };
      ];
  }

let test_dropped_instruction_detected () =
  let p = all_classes_program in
  let full = Static_cost.cost m p in
  check_oracle "full program" m ~slots:8 p;
  List.iteri
    (fun i _ ->
      let body' = List.filteri (fun j _ -> j <> i) p.Isa.body in
      let p' = { p with Isa.body = body' } in
      let static' = Static_cost.cost m p' in
      check_bool
        (Printf.sprintf "dropping instr %d changes the static cost" i)
        true (static' <> full);
      check_oracle (Printf.sprintf "dropped-instr program %d" i) m ~slots:8 p')
    p.Isa.body

(* {1 Resource diagnostics (LL8xx)} *)

let codes (r : Resource_check.report) =
  List.map (fun (d : Diagnostics.t) -> d.Diagnostics.code) r.Resource_check.diagnostics

let has_code c r = List.mem c (codes r)

let test_clean_program () =
  let p = all_classes_program in
  let r = Resource_check.program m ~live_in:[ 0 ] ~live_out:[ 4; 6 ] p in
  check_int "no diagnostics on a clean program" 0 (List.length r.Resource_check.diagnostics);
  check_int "footprint" (16 * 4) r.Resource_check.footprint_bytes;
  (match r.Resource_check.regions with
  | [ rg ] ->
      check_int "region start" 0 rg.Resource_check.first_elem;
      check_int "region end" 15 rg.Resource_check.last_elem;
      check_bool "region defined" true (rg.Resource_check.first_def = Some 5);
      check_bool "region used" true (rg.Resource_check.last_use = Some 7)
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs));
  check_bool "peak pressure positive" true (r.Resource_check.peak_live_slots > 0)

let single ~smem_elems body = { Isa.warps = 1; lanes = 4; smem_elems; body }

let test_smem_out_of_range () =
  let p =
    single ~smem_elems:4
      [ Isa.Ld_shared { slots = [ 0 ]; addr = Isa_fuzz.affine 2 [ 1; 4 ]; byte_width = 4 } ]
  in
  let r = Resource_check.program m p in
  check_bool "LL801" true (has_code "LL801" r);
  check_bool "LL801 is an error" true
    (Diagnostics.has_errors r.Resource_check.diagnostics)

let test_smem_overflow () =
  (* 32Ki elements x 4 bytes = 128 KiB > the RTX4090's 99 KiB. *)
  let elems = 32 * 1024 in
  let p =
    single ~smem_elems:elems
      [
        Isa.St_shared
          { slots = [ 0 ]; addr = ids ~base:(elems - 4) 4; byte_width = 4 };
      ]
  in
  let r = Resource_check.program m p in
  check_bool "LL802" true (has_code "LL802" r);
  check_int "footprint" (elems * 4) r.Resource_check.footprint_bytes

let test_read_before_store () =
  let p =
    single ~smem_elems:16
      [ Isa.Ld_shared { slots = [ 0 ]; addr = ids 4; byte_width = 4 } ]
  in
  check_bool "LL803" true (has_code "LL803" (Resource_check.program m p))

let test_dead_store () =
  let p =
    single ~smem_elems:16
      [
        Isa.St_shared { slots = [ 0 ]; addr = ids 4; byte_width = 4 };
        Isa.St_shared { slots = [ 0 ]; addr = ids 4; byte_width = 4 };
        Isa.Ld_shared { slots = [ 1 ]; addr = ids 4; byte_width = 4 };
      ]
  in
  let r = Resource_check.program m ~live_in:[ 0 ] ~live_out:[ 1 ] p in
  (* The first store is fully overwritten before any load: dead. *)
  match
    List.filter (fun (d : Diagnostics.t) -> d.Diagnostics.code = "LL804")
      r.Resource_check.diagnostics
  with
  | [ d ] -> check_bool "at instr 0" true (d.Diagnostics.loc = Diagnostics.Isa_instr 0)
  | ds -> Alcotest.failf "expected exactly one LL804, got %d" (List.length ds)

let test_use_before_def () =
  let p = single ~smem_elems:16 [ Isa.Bin { op = `Add; dst = 1; a = 0; b = 0 } ] in
  check_bool "LL805" true (has_code "LL805" (Resource_check.program m p));
  (* Declaring slot 0 live-in silences it. *)
  check_bool "live_in silences" false
    (has_code "LL805" (Resource_check.program m ~live_in:[ 0 ] p))

let test_dead_write () =
  let p =
    single ~smem_elems:16
      [ Isa.Mov { dst = 2; src = 0 }; Isa.Mov { dst = 2; src = 1 } ]
  in
  let r = Resource_check.program m ~live_in:[ 0; 1 ] ~live_out:[ 2 ] p in
  (match
     List.filter (fun (d : Diagnostics.t) -> d.Diagnostics.code = "LL806")
       r.Resource_check.diagnostics
   with
  | [ d ] -> check_bool "at instr 0" true (d.Diagnostics.loc = Diagnostics.Isa_instr 0)
  | ds -> Alcotest.failf "expected exactly one LL806, got %d" (List.length ds));
  (* Without a live-out contract the analysis stays silent. *)
  check_bool "no live_out, no LL806" false
    (has_code "LL806" (Resource_check.program m ~live_in:[ 0; 1 ] p))

let test_shape_and_lane_errors () =
  let bad_shape =
    single ~smem_elems:16 [ Isa.Sel { dst = 0; src_slot = [| [| 0 |] |] } ]
  in
  check_bool "LL800" true (has_code "LL800" (Resource_check.program m bad_shape));
  let bad_lane =
    single ~smem_elems:16
      [
        Isa.Shfl_idx
          {
            dst = 1;
            src = 0;
            src_lane = tbl 1 4 (fun _ _ -> 4);
            keep = tbl 1 4 (fun _ _ -> true);
          };
      ]
  in
  check_bool "LL807" true (has_code "LL807" (Resource_check.program m ~live_in:[ 0 ] bad_lane))

(* One LL800 per shape rule of a shared-memory address map, each on a
   map that is well-formed but for that rule; the well-formed map
   itself raises nothing. *)
let test_address_shape_errors () =
  let program ?(lanes = 4) ?(slots = [ 0; 1 ]) addr =
    { Isa.warps = 2; lanes; smem_elems = 64; body = [ Isa.St_shared { slots; addr; byte_width = 4 } ] }
  in
  let ll800 p = has_code "LL800" (Resource_check.program m ~live_in:[ 0; 1; 2 ] p) in
  let ok = Isa_fuzz.affine 8 [ 2; 4; 16 ] in
  check_bool "well-formed" false (ll800 (program ok));
  check_bool "a column short" true (ll800 (program (Isa_fuzz.affine 8 [ 2; 4 ])));
  check_bool "a column too many" true (ll800 (program (Isa_fuzz.affine 8 [ 2; 4; 16; 32 ])));
  check_bool "three lanes" true (ll800 (program ~lanes:3 ok));
  check_bool "no slots" true (ll800 (program ~slots:[] ok));
  check_bool "three slots" true (ll800 (program ~slots:[ 0; 1; 2 ] ok));
  check_bool "odd base" true (ll800 (program (Isa_fuzz.affine 9 [ 2; 4; 16 ])));
  check_bool "odd column" true (ll800 (program (Isa_fuzz.affine 8 [ 2; 5; 16 ])))

(* [Isa.price] counts a shared-memory access by rank on warp 0's lane
   columns, times the warp count; [Cost_oracle] expands the map and
   runs the point model on every warp.  Random aligned maps on every
   machine and a 16-bank GH200, with bases whose high bits are set. *)
let prop_rank_price_matches_points =
  let machines =
    Gpusim.Machine.all_with_extras @ [ { Gpusim.Machine.gh200 with num_banks = 16 } ]
  in
  let gen =
    QCheck.Gen.(
      let* machine = oneofl machines in
      let* byte_width = oneofl [ 1; 2; 4; 8 ] in
      let* vec_bits = int_bound 2 in
      let* lane_bits = int_range 3 6 in
      let* warps = int_range 1 4 in
      let nvec = 1 lsl vec_bits in
      let* cols =
        list_repeat
          (lane_bits + Isa_fuzz.index_bits warps)
          (oneof [ return 0; map (fun k -> nvec lsl k) (int_bound 9); map (fun x -> nvec * x) (int_bound 511) ])
      in
      let* high = int_bound 3 in
      let* low = int_bound 511 in
      return (machine, byte_width, nvec, 1 lsl lane_bits, warps, ((high lsl 20) lor low) * nvec, cols))
  in
  let print (machine, byte_width, nvec, lanes, warps, base, cols) =
    Printf.sprintf "%s byte_width=%d nvec=%d lanes=%d warps=%d base=%d cols=[%s]"
      machine.Gpusim.Machine.name byte_width nvec lanes warps base
      (String.concat ";" (List.map string_of_int cols))
  in
  QCheck.Test.make ~name:"rank price = point oracle on affine accesses" ~count:1000
    (QCheck.make gen ~print) (fun (machine, byte_width, nvec, lanes, warps, base, cols) ->
      let addr = Isa_fuzz.affine base cols in
      let p =
        {
          Isa.warps;
          lanes;
          smem_elems = (4 lsl 20) * nvec;
          body = [ Isa.Ld_shared { slots = List.init nvec Fun.id; addr; byte_width } ];
        }
      in
      Isa.fault p (List.hd p.Isa.body) = None && Static_cost.cost machine p = Cost_oracle.cost machine p)

let test_predicated_lanes_no_false_positives () =
  (* A value staged only in serving lanes (Sel with -1 elsewhere), then
     shuffled out of exactly those lanes: no LL805/LL806 may fire. *)
  let lanes = 4 in
  let p =
    single ~smem_elems:16
      [
        (* Lanes 0 and 2 stage slot 0 into slot 1. *)
        Isa.Sel { dst = 1; src_slot = tbl 1 lanes (fun _ l -> if l mod 2 = 0 then 0 else -1) };
        (* Every lane pulls from an even (= staged) lane. *)
        Isa.Shfl_idx
          {
            dst = 2;
            src = 1;
            src_lane = tbl 1 lanes (fun _ l -> l land lnot 1);
            keep = tbl 1 lanes (fun _ _ -> true);
          };
      ]
  in
  let r = Resource_check.program m ~live_in:[ 0 ] ~live_out:[ 2 ] p in
  check_int "no diagnostics" 0 (List.length r.Resource_check.diagnostics)

let test_plan_analysis_clean () =
  (* Lowered conversion plans must be LL8xx-clean (this is what the
     lint sweep now runs per materialized conversion). *)
  let blocked ~spt ~tpw shape =
    Blocked.make
      {
        shape;
        size_per_thread = spt;
        threads_per_warp = tpw;
        warps_per_cta = [| 1; 1 |];
        order = [| 1; 0 |];
      }
  in
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 16; 16 |] in
  let dst = blocked ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  match Static_cost.lower_plan m plan with
  | None -> Alcotest.fail "expected a lowerable plan"
  | Some low ->
      let r = Resource_check.lowered m low in
      check_bool "no errors" false (Diagnostics.has_errors r.Resource_check.diagnostics)

(* [Resource_check.errors] is the error subset of [program], in order,
   without the dataflow.  Fault-inject raw fuzz programs and a lowered
   plan: a truncated lane table (LL800), a shared-memory address past
   the end (LL801) and a shuffle source lane out of range (LL807), one
   to three faults per program; the fuzz programs also carry LL803-805
   warnings, which [errors] must leave out without reordering the
   rest. *)
let inject = Isa_fuzz.inject

let check_errors_subset what p =
  List.iter
    (fun (live_in, live_out) ->
      let full = (Resource_check.program m ~live_in ?live_out p).Resource_check.diagnostics in
      if Resource_check.errors p <> Diagnostics.errors full then
        Alcotest.failf "%s: errors differ from the report's error subset" what)
    [ ([], None); ([ 0 ], Some [ 1; 2 ]) ];
  Resource_check.errors p <> []

let test_errors_subset_fault_injected () =
  let st = Random.State.make [| fuzz_seed + 2 |] in
  let faulty = ref 0 and warned = ref 0 in
  for i = 1 to 200 do
    let p, _ = fuzz_isa_program st in
    let p = inject st p in
    let what =
      Printf.sprintf "fuzz #%d (replay with STATIC_COST_FUZZ_SEED=%d)" i fuzz_seed
    in
    if check_errors_subset what p then incr faulty;
    if
      List.exists
        (fun (d : Diagnostics.t) -> d.Diagnostics.severity = Diagnostics.Warning)
        (Resource_check.program m p).Resource_check.diagnostics
    then incr warned
  done;
  check_bool "faults were injected" true (!faulty > 50);
  check_bool "warnings interleave" true (!warned > 50);
  let blocked ~spt ~tpw ~warps order =
    Blocked.make
      {
        shape = [| 16; 16 |];
        size_per_thread = spt;
        threads_per_warp = tpw;
        warps_per_cta = warps;
        order;
      }
  in
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] ~warps:[| 2; 1 |] [| 1; 0 |] in
  let dst = blocked ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] ~warps:[| 1; 2 |] [| 0; 1 |] in
  match Static_cost.lower_plan m (Codegen.Conversion.plan m ~src ~dst ~byte_width:4) with
  | None -> Alcotest.fail "expected a lowerable plan"
  | Some (prog, _) ->
      check_bool "lowered plan is error-free" false (check_errors_subset "lowered" prog);
      for i = 1 to 50 do
        ignore (check_errors_subset (Printf.sprintf "lowered + faults #%d" i) (inject st prog))
      done

(* Malformation parity: on raw fuzz programs with one to three injected
   faults (the [inject] kinds above), the interpreter, the static
   pricer, the certifier and the LL8xx error pass agree on whether a
   program is malformed, and the first three on the message. *)
let prop_malformation_parity =
  QCheck.Test.make ~name:"run, cost, certify_isa and errors agree on malformation" ~count:300
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let p, slots = fuzz_isa_program st in
      let p = inject st p in
      let failure f = match f () with _ -> None | exception Failure msg -> Some msg in
      let run = failure (fun () -> Isa.run m p (Isa.make_state p ~slots)) in
      let static = failure (fun () -> Static_cost.cost m p) in
      let map =
        { Codegen.Lower.src_regs = 1; dst_base = 1; dst_regs = 1; total_slots = slots }
      in
      let layout = Layout.identity1d 1 ~in_dim:Dims.register ~out_dim:(Dims.dim 0) in
      let certified =
        match
          (Analysis.Transval.certify_isa ~src:layout ~dst:layout ~map p).Analysis.Transval.verdict
        with
        | Analysis.Transval.Failed msg -> Some msg
        | Analysis.Transval.Proved | Analysis.Transval.Refuted _ -> None
      in
      static = run && certified = run && (Resource_check.errors p = []) = (run = None))

(* {1 The satellite fixes} *)

let test_gmem_inst_pricing () =
  let c = Gpusim.Cost.zero () in
  c.Gpusim.Cost.gmem_insts <- 3;
  (* Priced by cost_gmem_inst, NOT by cost_smem_inst (the bug this
     pins): an absurd smem weight must not leak into the estimate. *)
  let machine = { m with Gpusim.Machine.cost_gmem_inst = 7.0; cost_smem_inst = 1000.0 } in
  Alcotest.(check (float 1e-9)) "gmem_insts priced by cost_gmem_inst" 21.0
    (Gpusim.Cost.estimate machine c);
  (* All four machines carry weight 1.0, keeping golden estimates put. *)
  List.iter
    (fun (mm : Gpusim.Machine.t) ->
      Alcotest.(check (float 1e-9))
        (mm.Gpusim.Machine.name ^ " weight")
        1.0 mm.Gpusim.Machine.cost_gmem_inst)
    Gpusim.Machine.all_with_extras

let class_names = [ "mov"; "sel"; "scatter"; "shfl"; "st_shared"; "ld_shared"; "bin"; "bar" ]

let test_counts_by_instr_class () =
  List.iter
    (fun name ->
      check_int name 1
        (List.length
           (List.filter (fun i -> Isa.instr_class i = name) all_classes_program.Isa.body)))
    class_names

(* {1 Per-plan verdicts}

   [reprice_conversion] stores a plan's price on first demand and reads
   it afterwards; a raised [Failure] is never stored.  The failing plan
   is a 32x32 shared-memory plan carrying the swizzle of a column-major
   64x64 one: its lowered stores address past the 32x32 footprint, so pricing
   raises the interpreter's fault. *)

let shared_plan ?(order = [| 1; 0 |]) shape =
  let blocked ~spt ~tpw ~wpc =
    Blocked.make
      { shape; size_per_thread = spt; threads_per_warp = tpw; warps_per_cta = wpc; order }
  in
  let src = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] ~wpc:[| 4; 1 |] in
  let dst = blocked ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] ~wpc:[| 1; 4 |] in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory sw -> (plan, sw)
  | _ -> Alcotest.fail "expected a shared-memory plan"

let test_verdict_price_stored () =
  let plan, _ = shared_plan [| 64; 64 |] in
  let reprice () = Static_cost.reprice_conversion m plan in
  let first, _, misses = Plan_support.verdict_counts reprice in
  check_int "first demand computes" 1 misses;
  let second, hits, misses = Plan_support.verdict_counts reprice in
  check_int "second demand reads" 1 hits;
  check_int "second demand computes nothing" 0 misses;
  check_bool "same price" true (first = second && first <> None);
  (* Each caller owns its copy of the stored price. *)
  let alu c = (Option.get c).Gpusim.Cost.alu in
  let stored = alu second in
  Option.iter (fun c -> c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + 1) first;
  check_int "stored price untouched" stored (alu (reprice ()))

(* A cold re-price prices the lowered stream statically: with metrics
   on, it counts a verdict miss and moves no [isa.instr.*] counter, the
   interpreter's per-instruction count. *)
let test_cold_reprice_runs_no_interpreter () =
  let plan, _ = shared_plan [| 64; 64 |] in
  let executed () =
    List.map (fun name -> Obs.Metrics.counter_value ("isa.instr." ^ name)) class_names
  in
  let before = executed () in
  let price, _, misses =
    Plan_support.verdict_counts (fun () -> Static_cost.reprice_conversion m plan)
  in
  check_int "a cold demand" 1 misses;
  (match (price, Static_cost.lower_plan m plan) with
  | Some c, Some (program, _) ->
      check_bool "the lowered stream's cost" true (c = Static_cost.cost m program)
  | _ -> Alcotest.fail "expected a lowerable plan");
  check_bool "no isa.instr counter moved" true (executed () = before)

let test_verdict_failure_not_stored () =
  let plan, _ = shared_plan [| 32; 32 |] in
  let _, big = shared_plan ~order:[| 0; 1 |] [| 64; 64 |] in
  let mechanism = Codegen.Conversion.Shared_memory { big with Codegen.Swizzle_opt.vec = [] } in
  let bad = { plan with Codegen.Conversion.mechanism } in
  for call = 1 to 3 do
    let raised, hits, misses =
      Plan_support.verdict_counts (fun () ->
          match Static_cost.reprice_conversion m bad with
          | exception Failure _ -> true
          | _ -> false)
    in
    check_bool (Printf.sprintf "call %d raises" call) true raised;
    check_int (Printf.sprintf "call %d computes" call) 1 misses;
    check_int (Printf.sprintf "call %d reads nothing" call) 0 hits
  done

let () =
  Alcotest.run "static_cost"
    (Shuffle_support.maybe_shuffle
       [
         ( "golden",
           [
             Alcotest.test_case "static = interpreted on all 216 rows" `Quick
               test_golden_differential;
           ] );
         ( "fuzz",
           [
             Alcotest.test_case "engine-lowered fuzz programs" `Quick
               test_fuzz_engine_lowered;
             Alcotest.test_case "raw ISA fuzz programs" `Quick test_fuzz_raw_isa;
             QCheck_alcotest.to_alcotest prop_rank_price_matches_points;
           ] );
         ( "fault injection",
           [
             Alcotest.test_case "perturbed address immediate" `Quick
               test_perturbed_address_detected;
             Alcotest.test_case "dropped instruction" `Quick
               test_dropped_instruction_detected;
           ] );
         ( "resources",
           [
             Alcotest.test_case "clean program" `Quick test_clean_program;
             Alcotest.test_case "LL801 address out of range" `Quick test_smem_out_of_range;
             Alcotest.test_case "LL802 footprint overflow" `Quick test_smem_overflow;
             Alcotest.test_case "LL803 read before store" `Quick test_read_before_store;
             Alcotest.test_case "LL804 dead store" `Quick test_dead_store;
             Alcotest.test_case "LL805 use before def" `Quick test_use_before_def;
             Alcotest.test_case "LL806 dead write" `Quick test_dead_write;
             Alcotest.test_case "LL800 address shape rules" `Quick test_address_shape_errors;
             Alcotest.test_case "LL800/LL807 structural errors" `Quick
               test_shape_and_lane_errors;
             Alcotest.test_case "predicated lanes, no false positives" `Quick
               test_predicated_lanes_no_false_positives;
             Alcotest.test_case "lowered plan is clean" `Quick test_plan_analysis_clean;
             Alcotest.test_case "errors = error subset of program, fault-injected" `Quick
               test_errors_subset_fault_injected;
             QCheck_alcotest.to_alcotest prop_malformation_parity;
           ] );
         ( "verdicts",
           [
             Alcotest.test_case "price stored on first demand" `Quick
               test_verdict_price_stored;
             Alcotest.test_case "a raised Failure is never stored" `Quick
               test_verdict_failure_not_stored;
             Alcotest.test_case "a cold re-price runs no interpreter" `Quick
               test_cold_reprice_runs_no_interpreter;
           ] );
         ( "satellites",
           [
             Alcotest.test_case "gmem_insts pricing" `Quick test_gmem_inst_pricing;
             Alcotest.test_case "counts by instr_class" `Quick test_counts_by_instr_class;
           ] );
       ])
