(* Tests for the GPU simulator substrate: bank conflicts, coalescing,
   distributed values, cost model. *)

open Linear_layout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200

let access addr bytes = { Gpusim.Banks.addr; bytes }

let test_conflict_free_row () =
  (* 32 lanes reading consecutive 4-byte words: one wavefront. *)
  let accesses = List.init 32 (fun l -> access (l * 4) 4) in
  check_int "one wavefront" 1 (Gpusim.Banks.wavefronts m accesses)

let test_full_conflict () =
  (* 32 lanes all hitting bank 0 with distinct words: 32 wavefronts. *)
  let accesses = List.init 32 (fun l -> access (l * 128) 4) in
  check_int "32-way conflict" 32 (Gpusim.Banks.wavefronts m accesses)

let test_broadcast () =
  (* All lanes reading the same word: broadcast, one wavefront. *)
  let accesses = List.init 32 (fun _ -> access 64 4) in
  check_int "broadcast" 1 (Gpusim.Banks.wavefronts m accesses)

let test_two_way_conflict () =
  (* Lanes i and i+16 hit the same bank with different words. *)
  let accesses = List.init 32 (fun l -> access (l mod 16 * 4 + l / 16 * 256) 4) in
  check_int "2-way" 2 (Gpusim.Banks.wavefronts m accesses)

let test_vectorized_phases () =
  (* 32 lanes x 16B vectorized = 512B: four 128-byte phases, each
     conflict-free. *)
  let accesses = List.init 32 (fun l -> access (l * 16) 16) in
  check_int "four phases" 4 (Gpusim.Banks.wavefronts m accesses);
  check_bool "conflict free" true (Gpusim.Banks.conflict_free m accesses)

let test_vectorized_conflicting () =
  (* 8-lane phases all hitting the same 4 banks per phase with distinct
     words: stride 512 bytes. *)
  let accesses = List.init 32 (fun l -> access (l * 512) 16) in
  check_int "wavefronts" 32 (Gpusim.Banks.wavefronts m accesses)

(* The scratch-array phase count against the list-based oracle
   ({!Banks_oracle}), on the shipped machines and a 16-bank, 8-byte-word
   variant: lane-strided access lists at the access widths the planners
   use, and arbitrary ones — negative addresses, empty and oversized
   accesses, lists longer than a warp. *)
let arb_accesses =
  let open QCheck.Gen in
  let strided =
    map4
      (fun lanes base stride bytes -> List.init lanes (fun l -> access (base + (l * stride)) bytes))
      (int_range 0 64) (int_range (-256) 4096)
      (oneofl [ 0; 1; 2; 4; 8; 16; 128; 132; 512 ])
      (oneofl [ 1; 2; 4; 8; 16 ])
  in
  let arbitrary =
    list_size (int_range 0 70)
      (map2 access (int_range (-1024) 8192) (oneof [ int_range 0 20; int_range 0 300 ]))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun a -> Printf.sprintf "%d+%d" a.Gpusim.Banks.addr a.Gpusim.Banks.bytes) l))
    (oneof [ strided; arbitrary ])

let prop_wavefronts_match_oracle =
  let machines =
    Gpusim.Machine.all_with_extras
    @ [ { m with Gpusim.Machine.name = "GH200/16x8"; num_banks = 16; bank_bytes = 8 } ]
  in
  QCheck.Test.make ~name:"wavefronts and conflict_free = list oracle" ~count:1000 arb_accesses
    (fun accesses ->
      List.for_all
        (fun machine ->
          Gpusim.Banks.wavefronts machine accesses = Banks_oracle.wavefronts machine accesses
          && Gpusim.Banks.conflict_free machine accesses
             = Banks_oracle.conflict_free machine accesses)
        machines)

let test_coalesce () =
  let tx = Gpusim.Coalesce.transactions (List.init 32 (fun l -> (l * 4, 4))) in
  check_int "coalesced f32 row" 4 tx;
  let tx2 = Gpusim.Coalesce.transactions (List.init 32 (fun l -> (l * 128, 1))) in
  check_int "strided bytes" 32 tx2;
  Alcotest.(check string) "mnemonic 128" "v4.b32" (Gpusim.Coalesce.instruction_name ~bits:128);
  Alcotest.(check string) "mnemonic 16" "v1.b16" (Gpusim.Coalesce.instruction_name ~bits:16)

(* {1 Dist} *)

let layout_a =
  Blocked.make
    {
      shape = [| 16; 16 |];
      size_per_thread = [| 2; 2 |];
      threads_per_warp = [| 4; 8 |];
      warps_per_cta = [| 2; 1 |];
      order = [| 1; 0 |];
    }

let test_dist_roundtrip () =
  let d = Gpusim.Dist.init layout_a ~f:(fun i -> i * 7) in
  check_int "size" 256 (Gpusim.Dist.size d);
  (match Gpusim.Dist.to_logical d with
  | Ok t ->
      check_int "len" 256 (Array.length t);
      Array.iteri (fun i v -> if v <> i * 7 then Alcotest.failf "t.(%d) = %d" i v) t
  | Error e -> Alcotest.fail e);
  check_bool "consistent" true (Gpusim.Dist.consistent_with d ~f:(fun i -> i * 7))

let test_dist_broadcast_mismatch () =
  (* A broadcasting layout where we deliberately corrupt one copy. *)
  let l =
    Blocked.make
      {
        shape = [| 4; 4 |];
        size_per_thread = [| 1; 1 |];
        threads_per_warp = [| 4; 4 |];
        warps_per_cta = [| 2; 1 |];
        order = [| 1; 0 |];
      }
  in
  let d = Gpusim.Dist.init l ~f:Fun.id in
  Gpusim.Dist.set d (Gpusim.Dist.size d - 1) (-42);
  (match Gpusim.Dist.to_logical d with
  | Ok _ -> Alcotest.fail "expected broadcast mismatch"
  | Error _ -> ());
  check_bool "inconsistent" false (Gpusim.Dist.consistent_with d ~f:Fun.id)

(* A payload equal to [min_int] is a value like any other: the layout
   is surjective and the tensor reads back. *)
let test_dist_min_int_payload () =
  let l = Blocked.default ~warp_size:32 ~num_warps:1 [| 4; 8 |] in
  let f x = if x = 3 then min_int else x in
  match Gpusim.Dist.to_logical (Gpusim.Dist.init l ~f) with
  | Ok t -> Array.iteri (fun i v -> check_int (Printf.sprintf "t.(%d)" i) (f i) v) t
  | Error e -> Alcotest.fail e

let test_cost_model () =
  let c = Gpusim.Cost.zero () in
  c.Gpusim.Cost.shuffles <- 10;
  c.Gpusim.Cost.smem_wavefronts <- 4;
  let t = Gpusim.Cost.estimate m c in
  check_bool "positive" true (t > 0.);
  let c2 = Gpusim.Cost.scale c 3 in
  check_int "scaled" 30 c2.Gpusim.Cost.shuffles;
  Gpusim.Cost.add c c2;
  check_int "accumulated" 40 c.Gpusim.Cost.shuffles

let test_machines () =
  check_int "nvidia warp" 32 Gpusim.Machine.rtx4090.warp_size;
  check_int "amd warp" 64 Gpusim.Machine.mi250.warp_size;
  check_bool "gh200 wgmma" true Gpusim.Machine.gh200.has_wgmma;
  check_bool "4090 no wgmma" false Gpusim.Machine.rtx4090.has_wgmma;
  check_bool "mi250 no ldmatrix" false Gpusim.Machine.mi250.has_ldmatrix;
  check_int "three platforms" 3 (List.length Gpusim.Machine.all)

(* {1 The interpreter against its per-element oracle} *)

module Isa = Gpusim.Isa

let arith op x y = match op with `Add -> x + y | `Max -> max x y

(* Run [exec] on a state whose every register and shared cell holds a
   distinct value, so any move shows; the outcome is the final state or
   the exception raised, constructor and message. *)
let outcome exec (p : Isa.program) ~slots =
  let st = Isa.make_state p ~slots in
  Array.iteri (fun i _ -> st.Isa.regs.(i) <- i + 1) st.Isa.regs;
  Array.iteri (fun i _ -> st.Isa.smem.(i) <- -(i + 1)) st.Isa.smem;
  match exec ~bin:arith p st with
  | () -> Ok (st.Isa.regs, st.Isa.smem)
  | exception e -> Error (Printexc.to_string e)

let same_outcome p ~slots = outcome Isa.exec p ~slots = outcome Isa_oracle.exec p ~slots

(* Raw fuzz programs with [Isa.fault]s injected, some at the first
   positions an instruction reaches, then out-of-range register
   operands, sometimes on a CTA with no threads. *)
let faulty_program seed =
  let st = Random.State.make [| seed |] in
  let p, slots = Isa_fuzz.fuzz_isa_program st in
  let p = if Random.State.bool st then Isa_fuzz.inject st p else p in
  let p = if Random.State.bool st then Isa_fuzz.early_fault st p else p in
  let p = Isa_fuzz.bad_registers st ~slots p in
  let p = if Random.State.int st 6 = 0 then Isa_fuzz.empty_cta st p else p in
  (p, slots)

let prop_exec_matches_oracle =
  QCheck.Test.make ~name:"exec = per-element oracle on faulty programs" ~count:1000
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let p, slots = faulty_program seed in
      same_outcome p ~slots)

(* The fuzz above reaches every outcome: clean runs, faults and slot
   errors. *)
let test_exec_outcomes_covered () =
  let ok = ref 0 and failure = ref 0 and invalid = ref 0 in
  for seed = 0 to 999 do
    let p, slots = faulty_program seed in
    if not (same_outcome p ~slots) then Alcotest.failf "seed %d: exec <> oracle" seed;
    match outcome Isa.exec p ~slots with
    | Ok _ -> incr ok
    | Error e when String.starts_with ~prefix:"Failure" e -> incr failure
    | Error _ -> incr invalid
  done;
  check_bool "clean runs" true (!ok > 50);
  check_bool "faults" true (!failure > 50);
  check_bool "slot errors" true (!invalid > 50)

(* Every instruction kind with an out-of-range register operand that it
   never uses, because it touches no lane: the run completes. *)
let test_unused_bad_operand () =
  let tbl warps lanes v = Array.make_matrix warps lanes v in
  let zeros warps lanes =
    Isa_fuzz.affine 0 (List.init (Isa_fuzz.index_bits warps + Isa_fuzz.index_bits lanes) (fun _ -> 0))
  in
  let program ~warps ~lanes instr = { Isa.warps; lanes; smem_elems = 8; body = [ instr ] } in
  let no_threads instr = [ program ~warps:0 ~lanes:4 (instr 0 4); program ~warps:2 ~lanes:0 (instr 2 0) ] in
  let cases =
    no_threads (fun _ _ -> Isa.Mov { dst = 9; src = 0 })
    @ no_threads (fun _ _ -> Isa.Bin { op = `Add; dst = 0; a = -1; b = 0 })
    @ no_threads (fun w l -> Isa.St_shared { slots = [ 9 ]; addr = zeros w l; byte_width = 4 })
    @ no_threads (fun w l -> Isa.Ld_shared { slots = [ -2 ]; addr = zeros w l; byte_width = 4 })
    @ [
        program ~warps:2 ~lanes:4 (Isa.Sel { dst = 9; src_slot = tbl 2 4 (-1) });
        program ~warps:2 ~lanes:4 (Isa.Scatter { src = -3; dst_slot = tbl 2 4 (-1) });
        program ~warps:2 ~lanes:4
          (Isa.Shfl_idx { dst = 9; src = 0; src_lane = tbl 2 4 0; keep = tbl 2 4 false });
      ]
  in
  List.iteri
    (fun i p ->
      check_bool (Printf.sprintf "case %d completes" i) true
        (Result.is_ok (outcome Isa.exec p ~slots:4));
      check_bool (Printf.sprintf "case %d = oracle" i) true (same_outcome p ~slots:4))
    cases

let () =
  Alcotest.run "gpusim"
    [
      ( "banks",
        [
          Alcotest.test_case "conflict-free row" `Quick test_conflict_free_row;
          Alcotest.test_case "full conflict" `Quick test_full_conflict;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "two-way conflict" `Quick test_two_way_conflict;
          Alcotest.test_case "vectorized phases" `Quick test_vectorized_phases;
          Alcotest.test_case "vectorized conflicts" `Quick test_vectorized_conflicting;
          QCheck_alcotest.to_alcotest prop_wavefronts_match_oracle;
        ] );
      ("coalesce", [ Alcotest.test_case "transactions" `Quick test_coalesce ]);
      ( "dist",
        [
          Alcotest.test_case "roundtrip" `Quick test_dist_roundtrip;
          Alcotest.test_case "broadcast mismatch" `Quick test_dist_broadcast_mismatch;
          Alcotest.test_case "min_int payload" `Quick test_dist_min_int_payload;
        ] );
      ( "machine",
        [
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "platforms" `Quick test_machines;
        ] );
      ( "isa",
        [
          Alcotest.test_case "fuzz outcomes covered" `Quick test_exec_outcomes_covered;
          Alcotest.test_case "unused bad operand" `Quick test_unused_bad_operand;
          QCheck_alcotest.to_alcotest prop_exec_matches_oracle;
        ] );
    ]
