(* Fault injection for the translation validator (Analysis.Transval):
   mutate a proved artifact — flip one F2 matrix entry of the claimed
   destination layout, drop one ISA instruction, swap two shuffle
   rounds — and check the certifier's verdict against ground truth from
   the differential interpreter (a concrete run of the same program
   under Lower's load/store conventions).  Every refutation must come
   with a counterexample point that replays concretely; every proof
   must be confirmed by the concrete run. *)

open Linear_layout

let m = Gpusim.Machine.gh200
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Nonzero everywhere, injective: an unwritten slot (0) never matches,
   and equal payloads imply equal logical elements. *)
let payload i = i + 1

let lower_plan plan = Codegen.Lower.conversion m plan

(* {1 The differential interpreter} *)

let diff_out ~src ~dst ~map program =
  let d = Gpusim.Dist.init src ~f:payload in
  let st = Codegen.Lower.load_state program map d in
  let (_ : Gpusim.Cost.t) = Gpusim.Isa.run m program st in
  Codegen.Lower.store_dist program map ~dst st

let diff_correct ~src ~dst ~map program =
  match diff_out ~src ~dst ~map program with
  | out -> Gpusim.Dist.consistent_with out ~f:payload
  | exception Failure _ -> false

(* A refutation replays iff the concrete run really does produce the
   wrong element at the certifier's counterexample point. *)
let replays ~src ~dst ~map program (r : Analysis.Transval.refutation) =
  match diff_out ~src ~dst ~map program with
  | out ->
      let want = Layout.apply_flat (Layout.flatten_outs dst) r.Analysis.Transval.counterexample in
      out.Gpusim.Dist.data.(r.Analysis.Transval.counterexample) <> payload want
  | exception Failure _ -> true

(* The certifier is sound and complete against the differential
   interpreter on a (possibly mutated) artifact. *)
let verdict_matches_ground_truth ~src ~dst ~map program =
  match (Analysis.Transval.certify_isa ~src ~dst ~map program).Analysis.Transval.verdict with
  | Analysis.Transval.Proved -> diff_correct ~src ~dst ~map program
  | Analysis.Transval.Refuted r -> replays ~src ~dst ~map program r
  | Analysis.Transval.Failed _ -> (
      (* Symbolic execution only crashes where the concrete one does. *)
      match diff_out ~src ~dst ~map program with
      | (_ : Gpusim.Dist.t) -> false
      | exception Failure _ -> true)

(* {1 Fault kinds} *)

let drop_instr k (p : Gpusim.Isa.program) =
  { p with Gpusim.Isa.body = List.filteri (fun i _ -> i <> k) p.Gpusim.Isa.body }

let swap_shuffles (p : Gpusim.Isa.program) =
  let rounds =
    List.filteri
      (fun _ i -> match i with Gpusim.Isa.Shfl_idx _ -> true | _ -> false)
      p.Gpusim.Isa.body
  in
  match rounds with
  | a :: rest when rest <> [] ->
      let b = List.nth rest (List.length rest - 1) in
      Some
        {
          p with
          Gpusim.Isa.body =
            List.map
              (fun i -> if i == a then b else if i == b then a else i)
              p.Gpusim.Isa.body;
        }
  | _ -> None

(* Flip entry (row, col) of a layout's F2 matrix. *)
let flip_bit layout ~row ~col =
  let mat = Layout.to_matrix layout in
  let cols = F2.Bitmatrix.columns mat in
  let cols =
    Array.mapi (fun j c -> if j = col then F2.Bitvec.add c (F2.Bitvec.unit row) else c) cols
  in
  Layout.of_matrix ~ins:(Layout.in_dims layout) ~outs:(Layout.out_dims layout)
    (F2.Bitmatrix.make ~rows:(F2.Bitmatrix.rows mat) cols)

(* {1 Deterministic cases} *)

(* A pair whose conversion stages through shared memory (from
   test_analysis): warps tile rows on one side, columns on the other. *)
let smem_pair () =
  let shape = [| 32; 32 |] in
  let src = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 shape in
  let dst =
    Blocked.make
      {
        shape;
        size_per_thread = [| 4; 1 |];
        threads_per_warp = [| 8; 4 |];
        warps_per_cta = [| 1; 4 |];
        order = [| 0; 1 |];
      }
  in
  (src, dst)

let test_intact_proved () =
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let program, map = lower_plan plan in
  let cert = Analysis.Transval.certify_isa ~src ~dst ~map program in
  check_bool "intact smem plan proved" true
    (cert.Analysis.Transval.verdict = Analysis.Transval.Proved);
  check_bool "diff interpreter agrees" true (diff_correct ~src ~dst ~map program);
  let cert = Analysis.Transval.certify_plan m plan in
  check_bool "certify_plan proves too" true
    (cert.Analysis.Transval.verdict = Analysis.Transval.Proved)

(* Index of the first shared-memory store. *)
let first_store (p : Gpusim.Isa.program) =
  let rec find i = function
    | Gpusim.Isa.St_shared _ :: _ -> i
    | _ :: rest -> find (i + 1) rest
    | [] -> Alcotest.fail "no St_shared in smem lowering"
  in
  find 0 p.Gpusim.Isa.body

let test_dropped_store_refuted () =
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let program, map = lower_plan plan in
  let mutated = drop_instr (first_store program) program in
  (match (Analysis.Transval.certify_isa ~src ~dst ~map mutated).Analysis.Transval.verdict with
  | Analysis.Transval.Refuted r ->
      check_bool "counterexample replays concretely" true
        (replays ~src ~dst ~map mutated r)
  | v ->
      Alcotest.failf "expected a refutation, got %s"
        (Analysis.Transval.verdict_name v))

let test_flipped_matrix_refuted () =
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let program, map = lower_plan plan in
  (* The program implements src -> dst; claim it implements src -> dst'
     instead.  The flipped entry changes the flattened map at a basis
     point, so the claim must be refuted and the witness must replay
     against dst'. *)
  let dst' = flip_bit dst ~row:2 ~col:1 in
  (match (Analysis.Transval.certify_isa ~src ~dst:dst' ~map program).Analysis.Transval.verdict with
  | Analysis.Transval.Refuted r ->
      check_bool "counterexample replays concretely" true
        (replays ~src ~dst:dst' ~map program r)
  | v ->
      Alcotest.failf "expected a refutation, got %s"
        (Analysis.Transval.verdict_name v))

(* The shared-memory plan forced to a register permutation: its
   lowering fails, so its certificate is [Failed]. *)
let forced_register_permute () =
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  { plan with Codegen.Conversion.mechanism = Codegen.Conversion.Register_permute }

(* Each LL6xx code fires from one fault: a flipped claimed matrix entry
   (a wrong element, LL650), a dropped store or a [Bin] on the
   destination (a point never written, LL651) and a plan whose lowering
   fails (LL652).  The shared-memory
   plan forced to a register permutation has destination registers no
   source register supplies, so [Lower.conversion] raises. *)
let test_diagnostic_codes () =
  let codes cert =
    List.map (fun (d : Diagnostics.t) -> d.Diagnostics.code) (Analysis.Transval.diagnostics cert)
  in
  let check_codes what want cert = Alcotest.(check (list string)) what want (codes cert) in
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  let program, map = lower_plan plan in
  check_codes "intact plan" [] (Analysis.Transval.certify_isa ~src ~dst ~map program);
  check_codes "flipped matrix" [ "LL650" ]
    (Analysis.Transval.certify_isa ~src ~dst:(flip_bit dst ~row:2 ~col:1) ~map program);
  check_codes "dropped store" [ "LL651" ]
    (Analysis.Transval.certify_isa ~src ~dst ~map (drop_instr (first_store program) program));
  (* Arithmetic never forges a provenance: a destination slot that goes
     through [Bin] reads as never written. *)
  let d = map.Codegen.Lower.dst_base in
  check_codes "bin on a destination slot" [ "LL651" ]
    (Analysis.Transval.certify_isa ~src ~dst ~map
       {
         program with
         Gpusim.Isa.body =
           program.Gpusim.Isa.body @ [ Gpusim.Isa.Bin { op = `Add; dst = d; a = d; b = d } ];
       });
  let cert = Analysis.Transval.certify_plan m (forced_register_permute ()) in
  check_codes "failed lowering" [ "LL652" ] cert;
  Alcotest.(check string)
    "LL652 message"
    "plan could not be certified (register permutation): lowering failed: Lower: register \
     permutation has no source for a slot"
    (match Analysis.Transval.diagnostics cert with
    | [ d ] -> d.Diagnostics.message
    | _ -> "")

(* {1 Properties} *)

(* Random CTA-wide blocked pairs (as in test_analysis): same CTA shape
   on both sides, so every planned mechanism has a warp-level
   lowering. *)
let arb_cta_pair =
  let gen =
    QCheck.Gen.(
      let* size = oneofl [ 32; 64 ] in
      let layout_gen =
        let* spt1 = oneofl [ 1; 2; 4 ] in
        let* ord = oneofl [ [| 1; 0 |]; [| 0; 1 |] ] in
        let* wpc = oneofl [ [| 1; 4 |]; [| 4; 1 |]; [| 2; 2 |] ] in
        let spt = if ord.(0) = 1 then [| 1; spt1 |] else [| spt1; 1 |] in
        let tpw = if ord.(0) = 1 then [| 4; 8 |] else [| 8; 4 |] in
        return
          (Blocked.make
             {
               shape = [| size; size |];
               size_per_thread = spt;
               threads_per_warp = tpw;
               warps_per_cta = wpc;
               order = ord;
             })
      in
      let* a = layout_gen and* b = layout_gen in
      return (a, b))
  in
  QCheck.make gen ~print:(fun (a, b) -> Layout.to_string a ^ "\n->\n" ^ Layout.to_string b)

let plan_of (src, dst) = Codegen.Conversion.plan m ~src ~dst ~byte_width:4

let prop_intact_plans_prove =
  QCheck.Test.make ~name:"intact lowered plans are proved" ~count:60 arb_cta_pair
    (fun pair ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      (Analysis.Transval.certify_isa ~src ~dst ~map program).Analysis.Transval.verdict
      = Analysis.Transval.Proved)

let prop_dropped_instr =
  QCheck.Test.make ~name:"dropped instruction: verdict matches differential interpreter"
    ~count:80
    QCheck.(pair arb_cta_pair (int_bound 1000))
    (fun (pair, seed) ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      let n = List.length program.Gpusim.Isa.body in
      QCheck.assume (n > 0);
      verdict_matches_ground_truth ~src ~dst ~map (drop_instr (seed mod n) program))

let prop_swapped_rounds =
  QCheck.Test.make ~name:"swapped shuffle rounds: verdict matches differential interpreter"
    ~count:60 arb_cta_pair (fun pair ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      match swap_shuffles program with
      | None -> QCheck.assume_fail ()
      | Some mutated -> verdict_matches_ground_truth ~src ~dst ~map mutated)

let prop_flipped_entry =
  QCheck.Test.make ~name:"flipped matrix entry: verdict matches differential interpreter"
    ~count:80
    QCheck.(pair arb_cta_pair (pair small_nat small_nat))
    (fun (pair, (r, c)) ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      let row = r mod Layout.total_out_bits dst in
      let col = c mod Layout.total_in_bits dst in
      let dst' = flip_bit dst ~row ~col in
      (* The mutated claim names the same distribution space, so the
         certifier's symbolic route still applies; ground truth is the
         concrete run read back against the mutated claim. *)
      verdict_matches_ground_truth ~src ~dst:dst' ~map program)

(* {1 Differential against the fit-then-scan oracle} *)

(* Both certifiers on the same artifact: identical verdict,
   counterexample, got and want — or the same escaping exception. *)
let same_cert ~src ~dst ~map program =
  let run f = match f () with c -> Ok c | exception e -> Error (Printexc.to_string e) in
  let got = run (fun () -> Analysis.Transval.certify_isa ~src ~dst ~map program) in
  let want = run (fun () -> Transval_oracle.certify_isa ~src ~dst ~map program) in
  got = want

(* Rebuild the [k]-th instruction of class [select] with [f]; [None]
   when the program has no such instruction. *)
let mutate_nth ~select ~f k (p : Gpusim.Isa.program) =
  let hits = List.filter select p.Gpusim.Isa.body in
  match hits with
  | [] -> None
  | _ ->
      let target = List.nth hits (k mod List.length hits) in
      Some
        {
          p with
          Gpusim.Isa.body =
            List.concat_map (fun i -> if i == target then f i else [ i ]) p.Gpusim.Isa.body;
        }

let is_store = function Gpusim.Isa.St_shared _ -> true | _ -> false
let is_scatter = function Gpusim.Isa.Scatter _ -> true | _ -> false

let drop_store k p = mutate_nth ~select:is_store ~f:(fun _ -> []) k p

(* Swap two columns of one store's address map, the images of two
   thread bits: an address permutation that keeps every address in
   range. *)
let permute_store_addr k p =
  mutate_nth ~select:is_store
    ~f:(function
      | Gpusim.Isa.St_shared s ->
          let cols = Array.of_list (Isa_fuzz.columns s.addr) in
          let n = Array.length cols in
          let j1 = k mod n and j2 = (k / 7) mod n in
          let c = cols.(j1) in
          cols.(j1) <- cols.(j2);
          cols.(j2) <- c;
          [ Gpusim.Isa.St_shared { s with addr = Isa_fuzz.affine s.addr.Gpusim.Isa.base (Array.to_list cols) } ]
      | i -> [ i ])
    k p

(* Redirect one lane of a scatter to another destination slot, or
   disable it. *)
let clobber_scatter ~(map : Codegen.Lower.slot_map) k p =
  mutate_nth ~select:is_scatter
    ~f:(function
      | Gpusim.Isa.Scatter s ->
          let dst_slot = Array.map Array.copy s.dst_slot in
          let w = k mod Array.length dst_slot in
          let l = (k / 3) mod Array.length dst_slot.(w) in
          dst_slot.(w).(l) <-
            (if k mod 4 = 0 then -1
             else map.Codegen.Lower.dst_base + ((k / 5) mod map.Codegen.Lower.dst_regs));
          [ Gpusim.Isa.Scatter { s with dst_slot } ]
      | i -> [ i ])
    k p

(* Route a payload slot through arithmetic at some point of the body. *)
let bin_on_payload ~(map : Codegen.Lower.slot_map) k (p : Gpusim.Isa.program) =
  let n = List.length p.Gpusim.Isa.body in
  let at = k mod (n + 1) in
  let slot = (k / 11) mod map.Codegen.Lower.total_slots in
  let bin = Gpusim.Isa.Bin { op = `Add; dst = slot; a = slot; b = slot } in
  Some
    {
      p with
      Gpusim.Isa.body =
        List.filteri (fun i _ -> i < at) p.Gpusim.Isa.body
        @ (bin :: List.filteri (fun i _ -> i >= at) p.Gpusim.Isa.body);
    }

let prop_fault_differential name fault =
  QCheck.Test.make ~name:(name ^ ": single scan = fit-then-scan oracle") ~count:60
    QCheck.(pair arb_cta_pair (int_bound 100_000))
    (fun (pair, k) ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      match fault ~map k program with
      | None -> QCheck.assume_fail ()
      | Some mutated -> same_cert ~src ~dst ~map mutated)

let prop_flipped_differential =
  QCheck.Test.make ~name:"flipped matrix: single scan = fit-then-scan oracle" ~count:60
    QCheck.(pair arb_cta_pair (pair small_nat small_nat))
    (fun (pair, (r, c)) ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      let dst' =
        flip_bit dst ~row:(r mod Layout.total_out_bits dst) ~col:(c mod Layout.total_in_bits dst)
      in
      same_cert ~src ~dst:dst' ~map program)

(* Every lowerable plan of the kernel suite on every machine, intact. *)
let test_suite_differential () =
  let checked = ref 0 in
  List.iter
    (fun (r : Suite_plans.row) ->
      List.iter
        (fun (plan : Codegen.Conversion.plan) ->
          if Suite_plans.lowerable plan then begin
            let program, map = Codegen.Lower.conversion r.Suite_plans.machine plan in
            incr checked;
            if
              not
                (same_cert ~src:plan.Codegen.Conversion.src ~dst:plan.Codegen.Conversion.dst ~map
                   program)
            then
              Alcotest.failf "%s on %s (%s): certificates differ" r.Suite_plans.kernel
                r.Suite_plans.machine.Gpusim.Machine.name r.Suite_plans.mode
          end)
        r.Suite_plans.plans)
    (Suite_plans.rows () @ Suite_plans.pair_rows ());
  check_bool "plans checked" true (!checked > 100)

(* {1 The reused symbolic state}

   [certify_isa] runs on a per-domain state that only grows and is
   refilled with bottom over the prefix each program uses.  A large
   program leaves provenance in every cell it touched; a smaller one
   certified next on the same domain must not see any of it — a dropped
   store has to read back as never written, exactly as on the fresh
   state the oracle allocates. *)

let big_pair () =
  let shape = [| 128; 128 |] in
  let src = Blocked.default ~elems_per_thread:8 ~warp_size:32 ~num_warps:4 shape in
  let dst =
    Blocked.make
      {
        shape;
        size_per_thread = [| 4; 1 |];
        threads_per_warp = [| 8; 4 |];
        warps_per_cta = [| 1; 4 |];
        order = [| 0; 1 |];
      }
  in
  (src, dst)

let certify_big () =
  let src, dst = big_pair () in
  let program, map = lower_plan (plan_of (src, dst)) in
  check_bool "large plan proved" true
    ((Analysis.Transval.certify_isa ~src ~dst ~map program).Analysis.Transval.verdict
    = Analysis.Transval.Proved)

let test_large_then_small () =
  let src, dst = smem_pair () in
  let program, map = lower_plan (plan_of (src, dst)) in
  List.iteri
    (fun k mutated ->
      certify_big ();
      check_bool (Printf.sprintf "small plan after large (store %d dropped)" k) true
        (same_cert ~src ~dst ~map mutated))
    (program
    :: List.filter_map
         (fun k -> drop_store k program)
         (List.init
            (List.length (List.filter is_store program.Gpusim.Isa.body))
            Fun.id))

let prop_large_then_small =
  QCheck.Test.make ~name:"after a large plan: single scan = fresh-state oracle" ~count:40
    QCheck.(pair arb_cta_pair (int_bound 100_000))
    (fun (pair, k) ->
      let src, dst = pair in
      let program, map = lower_plan (plan_of pair) in
      match drop_store k program with
      | None -> QCheck.assume_fail ()
      | Some mutated ->
          certify_big ();
          same_cert ~src ~dst ~map mutated)

(* Every kernel-suite plan certified on two domains at once gives the
   certificates one domain gives. *)
let test_suite_two_domains () =
  let plans =
    List.concat_map
      (fun (r : Suite_plans.row) ->
        List.map (fun plan -> (r.Suite_plans.machine, plan)) r.Suite_plans.plans)
      (Suite_plans.rows () @ Suite_plans.pair_rows ())
  in
  let certify_all () =
    List.map (fun (machine, plan) -> Analysis.Transval.certify_plan machine plan) plans
  in
  let one = certify_all () in
  let d1 = Domain.spawn certify_all and d2 = Domain.spawn certify_all in
  let two = [ Domain.join d1; Domain.join d2 ] in
  check_bool "suite has symbolic certificates" true
    (List.exists (fun c -> c.Analysis.Transval.method_ = Analysis.Transval.Symbolic) one);
  List.iter (fun certs -> check_bool "2 domains = 1 domain" true (certs = one)) two

(* Layouts over the same number of logical bits but different tensor
   shapes, 8x4 and 4x8: a global round trip between them has no map to
   certify. *)
let test_roundtrip_different_shapes () =
  let id bits in_dim d = Layout.identity1d bits ~in_dim ~out_dim:(Dims.dim d) in
  let src = Layout.mul (id 2 Dims.register 1) (id 3 Dims.lane 0)
  and dst = Layout.mul (id 3 Dims.register 1) (id 2 Dims.lane 0) in
  let plan =
    { Codegen.Conversion.src; dst; byte_width = 4; mechanism = Codegen.Conversion.Global_roundtrip }
  in
  match (Analysis.Transval.certify_plan m plan).Analysis.Transval.verdict with
  | Analysis.Transval.Failed msg ->
      Alcotest.(check string)
        "message" "layouts cover different logical spaces (dim1:2xdim0:3 vs dim1:3xdim0:2)" msg
  | v -> Alcotest.failf "expected Failed, got %s" (Analysis.Transval.verdict_name v)

(* A global round trip whose source reaches only the low three of five
   logical bits is refuted at the first destination point outside the
   source's image, the point a brute-force scan over every destination
   point and every source point finds. *)
let not_surjective () =
  let ins = [ (Dims.register, 2); (Dims.lane, 3) ] and outs = [ (Dims.dim 0, 5) ] in
  let layout cols = Layout.of_matrix ~ins ~outs (F2.Bitmatrix.make ~rows:5 (Array.of_list cols)) in
  let src = layout [ 0b00001; 0b00010; 0b00100; 0b00011; 0 ]
  and dst = layout [ 0b00100; 0b00001; 0b01000; 0b00010; 0b10000 ] in
  { Codegen.Conversion.src; dst; byte_width = 4; mechanism = Codegen.Conversion.Global_roundtrip }

let test_roundtrip_not_surjective () =
  let plan = not_surjective () in
  let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
  let image = List.init 32 (Layout.apply_flat src) in
  let witness =
    List.find (fun h -> not (List.mem (Layout.apply_flat dst h) image)) (List.init 32 Fun.id)
  in
  let cert = Analysis.Transval.certify_plan m plan in
  Alcotest.(check int) "points" 32 cert.Analysis.Transval.points;
  match cert.Analysis.Transval.verdict with
  | Analysis.Transval.Refuted { counterexample; got; want } ->
      Alcotest.(check int) "counterexample" witness counterexample;
      check_bool "nothing read" true (got = None);
      Alcotest.(check int) "want" (Layout.apply_flat dst witness) want
  | v -> Alcotest.failf "expected Refuted, got %s" (Analysis.Transval.verdict_name v)

(* {1 The stored certificate}

   [Plan_verdict.cert] stores a plan's certificate per plan value,
   machine and domain; [certify_plan] proves afresh on every call, so
   it is the oracle the stored value is held against. *)

let stored_is_proved what machine plan =
  let stored = Analysis.Plan_verdict.cert machine plan in
  check_bool what true (stored = Analysis.Transval.certify_plan machine plan)

(* Every suite and pair plan, on every machine: a certificate stored
   for another plan differs from the prover's on some of them.  One
   stored for another machine would not, since certificates do not
   depend on the machine (next test). *)
let test_stored_cert_suite () =
  let plans =
    List.concat_map
      (fun (r : Suite_plans.row) -> r.Suite_plans.plans)
      (Suite_plans.rows () @ Suite_plans.pair_rows ())
  in
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      List.iteri
        (fun i plan ->
          stored_is_proved (Printf.sprintf "%s, plan %d" machine.Gpusim.Machine.name i) machine
            plan)
        plans)
    Gpusim.Machine.all_with_extras

(* The lowering ignores its machine, so a plan's certificate is the
   same on all four machines.  The verdict table still keys
   certificates by machine; once a lowering depends on the machine,
   this test fails and the machine key needs a test of its own. *)
let test_cert_machine_independent () =
  List.iter
    (fun (r : Suite_plans.row) ->
      List.iteri
        (fun i plan ->
          let first = Analysis.Transval.certify_plan Gpusim.Machine.gh200 plan in
          List.iter
            (fun (m : Gpusim.Machine.t) ->
              if Analysis.Transval.certify_plan m plan <> first then
                Alcotest.failf "%s on %s (%s), plan %d: the certificate on %s differs from GH200's"
                  r.Suite_plans.kernel r.Suite_plans.machine.Gpusim.Machine.name
                  r.Suite_plans.mode i m.Gpusim.Machine.name)
            Gpusim.Machine.all_with_extras)
        r.Suite_plans.plans)
    (Suite_plans.rows () @ Suite_plans.pair_rows ())

(* The first demand proves, the second reads the stored certificate
   and proves nothing, whatever the verdict; a structurally equal but
   physically fresh plan is a fresh key. *)
let test_stored_cert_demands () =
  let checked () = Obs.Metrics.counter_value "transval.certificates.checked" in
  let src, dst = smem_pair () in
  List.iter
    (fun (what, plan, verdict) ->
      stored_is_proved (what ^ ": stored = proved") m plan;
      let cert, hits, misses =
        Plan_support.verdict_counts (fun () ->
            let before = checked () in
            let c = Analysis.Plan_verdict.cert m plan in
            check_int (what ^ ": second demand proves nothing") 0 (checked () - before);
            c)
      in
      check_int (what ^ ": second demand is a hit") 1 hits;
      check_int (what ^ ": second demand computes nothing") 0 misses;
      Alcotest.(check string)
        (what ^ ": verdict") verdict
        (Analysis.Transval.verdict_name cert.Analysis.Transval.verdict);
      let fresh = { plan with Codegen.Conversion.byte_width = plan.Codegen.Conversion.byte_width } in
      let again, hits, misses =
        Plan_support.verdict_counts (fun () -> Analysis.Plan_verdict.cert m fresh)
      in
      check_int (what ^ ": a fresh value misses") 1 misses;
      check_int (what ^ ": a fresh value reads nothing") 0 hits;
      check_bool (what ^ ": same certificate") true (again = cert))
    [
      ("proved", Codegen.Conversion.plan m ~src ~dst ~byte_width:4, "proved");
      ("refuted", not_surjective (), "refuted");
      ("failed", forced_register_permute (), "failed");
    ]

(* {1 Gather certificates} *)

(* A gather that stays within each warp: lanes on the feature dim, the
   gathered rows covered by registers and a few lanes; the index is a
   data-dependent row permutation. *)
let gather_case () =
  let l =
    Blocked.make
      {
        shape = [| 16; 8 |];
        size_per_thread = [| 2; 1 |];
        threads_per_warp = [| 8; 4 |];
        warps_per_cta = [| 1; 2 |];
        order = [| 1; 0 |];
      }
  in
  let src = Gpusim.Dist.init l ~f:Fun.id in
  let index = Gpusim.Dist.init l ~f:(fun v -> (v * 5) + 3) in
  (l, src, index)

(* The certificate a per-point scan gives, from the provenance lookup
   and the reference gather ([Gather.execute] on the payload
   [value = logical element]): the first unwritten point if any, else
   the first point holding the wrong element. *)
let reference_gather_cert ~src ~index ~axis ~map program =
  let l = src.Gpusim.Dist.layout in
  let want = (Codegen.Gather.execute ~src ~index ~axis).Gpusim.Dist.data in
  let points = Array.length want in
  let cert verdict =
    { Analysis.Transval.mechanism = "gather"; method_ = Analysis.Transval.Symbolic; points; verdict }
  in
  let prov = Analysis.Transval.provenance ~map program in
  let got h = Layout.apply_flat l (prov h) in
  let rec first bad h = if h >= points then None else if bad h then Some h else first bad (h + 1) in
  match first (fun h -> prov h < 0) 0 with
  | Some h ->
      cert (Analysis.Transval.Refuted { counterexample = h; got = None; want = want.(h) })
  | None -> (
      match first (fun h -> got h <> want.(h)) 0 with
      | None -> cert Analysis.Transval.Proved
      | Some h ->
          cert
            (Analysis.Transval.Refuted { counterexample = h; got = Some (got h); want = want.(h) }))

let test_gather_proved () =
  let l, src, index = gather_case () in
  (match Codegen.Gather.plan l ~axis:0 with
  | Codegen.Gather.Warp_shuffle _ -> ()
  | Codegen.Gather.Shared_fallback -> Alcotest.fail "expected an in-warp gather");
  let cert = Analysis.Transval.certify_gather m ~src ~index ~axis:0 in
  check_bool "gather proved" true (cert.Analysis.Transval.verdict = Analysis.Transval.Proved);
  Alcotest.(check int) "points" (Gpusim.Dist.size src) cert.Analysis.Transval.points;
  match Codegen.Lower.gather m ~src ~index ~axis:0 with
  | Error e -> Alcotest.fail e
  | Ok (program, map) ->
      check_bool "reference scan agrees" true
        (Analysis.Transval.certify_gather_isa ~src:l ~index ~axis:0 ~map program
        = reference_gather_cert ~src ~index ~axis:0 ~map program)

(* One clobbered [Scatter] slot per case: every scatter of the program
   in turn, its first committing lane redirected to the next
   destination slot or disabled. *)
let test_gather_clobbered_refuted () =
  let l, src, index = gather_case () in
  match Codegen.Lower.gather m ~src ~index ~axis:0 with
  | Error e -> Alcotest.fail e
  | Ok (program, map) ->
      let scatters = List.length (List.filter is_scatter program.Gpusim.Isa.body) in
      check_bool "program has scatters" true (scatters > 0);
      let clobber k = function
        | Gpusim.Isa.Scatter s ->
            let dst_slot = Array.map Array.copy s.dst_slot in
            let w = ref 0 in
            while not (Array.exists (fun v -> v >= 0) dst_slot.(!w)) do incr w done;
            let row = dst_slot.(!w) and l = ref 0 in
            while row.(!l) < 0 do incr l done;
            let d = row.(!l) - map.Codegen.Lower.dst_base in
            row.(!l) <-
              (if k mod 2 = 0 then
                 map.Codegen.Lower.dst_base + ((d + 1) mod map.Codegen.Lower.dst_regs)
               else -1);
            [ Gpusim.Isa.Scatter { s with dst_slot } ]
        | i -> [ i ]
      in
      for k = 0 to (2 * scatters) - 1 do
        let mutated = Option.get (mutate_nth ~select:is_scatter ~f:(clobber k) (k / 2) program) in
        let cert = Analysis.Transval.certify_gather_isa ~src:l ~index ~axis:0 ~map mutated in
        (match cert.Analysis.Transval.verdict with
        | Analysis.Transval.Refuted _ -> ()
        | v ->
            Alcotest.failf "clobber %d: expected a refutation, got %s" k
              (Analysis.Transval.verdict_name v));
        if cert <> reference_gather_cert ~src ~index ~axis:0 ~map mutated then
          Alcotest.failf "clobber %d: certificate differs from the reference scan" k
      done

(* The intact program claimed against other index data moves the wrong
   elements: refuted at a written point, as the reference scan says. *)
let test_gather_other_index_refuted () =
  let l, src, index = gather_case () in
  match Codegen.Lower.gather m ~src ~index ~axis:0 with
  | Error e -> Alcotest.fail e
  | Ok (program, map) -> (
      let index = Gpusim.Dist.init l ~f:(fun v -> (v * 3) + 1) in
      let cert = Analysis.Transval.certify_gather_isa ~src:l ~index ~axis:0 ~map program in
      check_bool "reference scan agrees" true
        (cert = reference_gather_cert ~src ~index ~axis:0 ~map program);
      match cert.Analysis.Transval.verdict with
      | Analysis.Transval.Refuted { got = Some _; _ } -> ()
      | v -> Alcotest.failf "expected a wrong element, got %s" (Analysis.Transval.verdict_name v))

(* {1 Programs are never mutated}

   Instruction tables may share rows (the shuffle lowering gives every
   warp a round does not touch one immutable default row), which is
   sound only because no consumer writes to a program.  Run every
   consumer over every lowered suite program and compare the program
   with a deep copy taken before. *)

let copy_program (p : Gpusim.Isa.program) =
  let t a = Array.map Array.copy a in
  let instr = function
    | Gpusim.Isa.Sel s -> Gpusim.Isa.Sel { s with src_slot = t s.src_slot }
    | Gpusim.Isa.Scatter s -> Gpusim.Isa.Scatter { s with dst_slot = t s.dst_slot }
    | Gpusim.Isa.Shfl_idx s -> Gpusim.Isa.Shfl_idx { s with src_lane = t s.src_lane; keep = t s.keep }
    | (Gpusim.Isa.St_shared _ | Gpusim.Isa.Ld_shared _ | Gpusim.Isa.Mov _ | Gpusim.Isa.Bin _
      | Gpusim.Isa.Bar_sync) as i ->
        (* Address maps are immutable values. *)
        i
  in
  { p with Gpusim.Isa.body = List.map instr p.Gpusim.Isa.body }

let test_programs_not_mutated () =
  let checked = ref 0 in
  List.iter
    (fun (r : Suite_plans.row) ->
      let machine = r.Suite_plans.machine in
      List.iter
        (fun (plan : Codegen.Conversion.plan) ->
          if Suite_plans.lowerable plan then begin
            let program, map = Codegen.Lower.conversion machine plan in
            let before = copy_program program in
            let slots = map.Codegen.Lower.total_slots in
            ignore (Gpusim.Isa.run machine program (Gpusim.Isa.make_state program ~slots));
            ignore (Analysis.Static_cost.cost machine program);
            ignore (Analysis.Resource_check.program machine program);
            ignore (Analysis.Races.check_lowered plan program);
            ignore
              (Analysis.Transval.certify_isa ~src:plan.Codegen.Conversion.src
                 ~dst:plan.Codegen.Conversion.dst ~map program);
            incr checked;
            if program <> before then
              Alcotest.failf "%s on %s (%s): a consumer mutated the program" r.Suite_plans.kernel
                machine.Gpusim.Machine.name r.Suite_plans.mode
          end)
        r.Suite_plans.plans)
    (Suite_plans.rows () @ Suite_plans.pair_rows ());
  check_bool "plans checked" true (!checked > 100)

(* {1 Proof in closed form}

   [certify_isa] first tries {!Analysis.Transval.proves_in_closed_form}
   and runs the scan only when it answers [false].  The closed form may
   never prove what the scan does not (soundness, checked against the
   fit-then-scan oracle under program mutations), must prove every
   round trip and shuffle the suite lowers (completeness), and must
   hand a correct program it cannot decide to the scan (fallback). *)

(* The distinct lowerable [Shared_memory] and [Warp_shuffle] plans of
   the suite, lowered on their own machines. *)
let closed_form_cases =
  lazy
    (let seen = Hashtbl.create 128 in
     List.concat_map
       (fun (r : Suite_plans.row) ->
         List.filter_map
           (fun (plan : Codegen.Conversion.plan) ->
             match plan.Codegen.Conversion.mechanism with
             | (Codegen.Conversion.Shared_memory _ | Codegen.Conversion.Warp_shuffle _)
               when Suite_plans.lowerable plan && not (Hashtbl.mem seen plan) ->
                 Hashtbl.add seen plan ();
                 let program, map = Codegen.Lower.conversion r.Suite_plans.machine plan in
                 Some (plan, program, map)
             | _ -> None)
           r.Suite_plans.plans)
       (Suite_plans.rows () @ Suite_plans.pair_rows ()))

let test_closed_form_complete () =
  let smem = ref 0 and shfl = ref 0 in
  List.iter
    (fun ((plan : Codegen.Conversion.plan), program, map) ->
      let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
      if not (Analysis.Transval.proves_in_closed_form ~src ~dst ~map program) then
        Alcotest.failf "%s plan not proved in closed form:\n%s\n->\n%s"
          (Codegen.Conversion.mechanism_name plan.Codegen.Conversion.mechanism)
          (Layout.to_string src) (Layout.to_string dst);
      match plan.Codegen.Conversion.mechanism with
      | Codegen.Conversion.Shared_memory _ -> incr smem
      | _ -> incr shfl)
    (Lazy.force closed_form_cases);
  Printf.printf "closed form: %d shared-memory plans, %d shuffle plans\n" !smem !shfl;
  check_bool "shared-memory plans" true (!smem > 50);
  check_bool "shuffle plans" true (!shfl > 5)

(* A correct round trip the closed form cannot decide: the smem pair's
   program with a barrier after its first store.  Stores write disjoint
   cells, so the barrier changes nothing the program computes, but the
   program is no longer [St_shared+ ; Bar_sync* ; Ld_shared+]. *)
let barrier_between_stores () =
  let src, dst = smem_pair () in
  let program, map = lower_plan (plan_of (src, dst)) in
  let body =
    match program.Gpusim.Isa.body with
    | (Gpusim.Isa.St_shared _ as first) :: (Gpusim.Isa.St_shared _ :: _ as rest) ->
        first :: Gpusim.Isa.Bar_sync :: rest
    | _ -> Alcotest.fail "expected two leading stores"
  in
  (src, dst, map, program, { program with Gpusim.Isa.body })

let test_closed_form_fallback () =
  let src, dst, map, _, split = barrier_between_stores () in
  check_bool "concretely correct" true (diff_correct ~src ~dst ~map split);
  check_bool "closed form bails" false
    (Analysis.Transval.proves_in_closed_form ~src ~dst ~map split);
  check_bool "scan proves" true
    ((Analysis.Transval.certify_isa ~src ~dst ~map split).Analysis.Transval.verdict
    = Analysis.Transval.Proved)

(* With observability on, each [certify_isa] call counts the route that
   decided it. *)
let test_route_counters () =
  let src, dst, map, intact, split = barrier_between_stores () in
  let count name = Obs.Metrics.counter_value ("transval.route." ^ name) in
  let moves program =
    Obs.with_enabled (fun () ->
        let closed = count "closed_form" and scan = count "scan" in
        ignore (Analysis.Transval.certify_isa ~src ~dst ~map program);
        (count "closed_form" - closed, count "scan" - scan))
  in
  Alcotest.(check (pair int int)) "intact: closed form" (1, 0) (moves intact);
  Alcotest.(check (pair int int)) "barrier between stores: scan" (0, 1) (moves split);
  Alcotest.(check (pair int int))
    "off: nothing counted" (0, 0)
    (let closed = count "closed_form" and scan = count "scan" in
     ignore (Analysis.Transval.certify_isa ~src ~dst ~map intact);
     (count "closed_form" - closed, count "scan" - scan))

(* {2 Program mutations for the soundness property}

   Each takes the case's map and a random [k] and rebuilds the program
   with one fault; tables are copied before they change, since lowered
   programs may share rows. *)

let body_of (p : Gpusim.Isa.program) = Array.of_list p.Gpusim.Isa.body
let with_body (p : Gpusim.Isa.program) b = { p with Gpusim.Isa.body = Array.to_list b }

let drop_at k p =
  let b = body_of p in
  let i = k mod Array.length b in
  with_body p (Array.append (Array.sub b 0 i) (Array.sub b (i + 1) (Array.length b - i - 1)))

let duplicate_at k p =
  let b = body_of p in
  let i = k mod Array.length b in
  with_body p (Array.concat [ Array.sub b 0 (i + 1); Array.sub b i (Array.length b - i) ])

let swap_adjacent k p =
  let b = Array.copy (body_of p) in
  let n = Array.length b in
  if n >= 2 then begin
    let i = k mod (n - 1) in
    let x = b.(i) in
    b.(i) <- b.(i + 1);
    b.(i + 1) <- x
  end;
  with_body p b

(* Rebuild instruction [k mod n] with [f]. *)
let rebuild_at k f p =
  let b = Array.copy (body_of p) in
  let i = k mod Array.length b in
  b.(i) <- f b.(i);
  with_body p b

(* XOR one entry of an instruction's per-warp/lane table with a low
   bit, in one warp's row or in a row every warp then shares (as the
   shuffle lowering shares its rows), or one bit of an address map's
   base or of one of its columns; instructions without a table are left
   alone. *)
let flip_entry k p =
  let bit = 1 lsl ((k / 13) mod 6) in
  let flip t =
    let l = (k / 11) mod Array.length t.(0) in
    if k / 17 mod 2 = 0 then begin
      let t = Array.map Array.copy t in
      let row = t.((k / 7) mod Array.length t) in
      row.(l) <- row.(l) lxor bit;
      t
    end
    else begin
      let row = Array.copy t.(0) in
      row.(l) <- row.(l) lxor bit;
      Array.make (Array.length t) row
    end
  in
  let flip_addr (a : Gpusim.Isa.addr) =
    let cols = Isa_fuzz.columns a in
    let j = (k / 11) mod (List.length cols + 1) in
    if j = List.length cols then { a with Gpusim.Isa.base = a.Gpusim.Isa.base lxor bit }
    else Isa_fuzz.affine a.Gpusim.Isa.base (List.mapi (fun i c -> if i = j then c lxor bit else c) cols)
  in
  rebuild_at k
    (function
      | Gpusim.Isa.Sel s -> Gpusim.Isa.Sel { s with src_slot = flip s.src_slot }
      | Gpusim.Isa.Scatter s -> Gpusim.Isa.Scatter { s with dst_slot = flip s.dst_slot }
      | Gpusim.Isa.Shfl_idx s -> Gpusim.Isa.Shfl_idx { s with src_lane = flip s.src_lane }
      | Gpusim.Isa.St_shared s -> Gpusim.Isa.St_shared { s with addr = flip_addr s.addr }
      | Gpusim.Isa.Ld_shared s -> Gpusim.Isa.Ld_shared { s with addr = flip_addr s.addr }
      | i -> i)
    p

let flip_keep k p =
  rebuild_at k
    (function
      | Gpusim.Isa.Shfl_idx s ->
          let keep = Array.map Array.copy s.keep in
          let row = keep.((k / 7) mod Array.length keep) in
          let l = (k / 11) mod Array.length row in
          row.(l) <- not row.(l);
          Gpusim.Isa.Shfl_idx { s with keep }
      | i -> i)
    p

let reverse_slots k p =
  rebuild_at k
    (function
      | Gpusim.Isa.St_shared s -> Gpusim.Isa.St_shared { s with slots = List.rev s.slots }
      | Gpusim.Isa.Ld_shared s -> Gpusim.Isa.Ld_shared { s with slots = List.rev s.slots }
      | i -> i)
    p

(* Replace one slot operand by another slot of the state, possibly one
   past its end. *)
let renumber_slot ~(map : Codegen.Lower.slot_map) k p =
  let n = map.Codegen.Lower.total_slots in
  let other s = (s + 1 + ((k / 7) mod n)) mod (n + 1) in
  let nth_slot sl =
    let j = (k / 17) mod List.length sl in
    List.mapi (fun i s -> if i = j then other s else s) sl
  in
  rebuild_at k
    (function
      | Gpusim.Isa.Mov s -> Gpusim.Isa.Mov { s with dst = other s.dst }
      | Gpusim.Isa.Sel s -> Gpusim.Isa.Sel { s with dst = other s.dst }
      | Gpusim.Isa.Scatter s -> Gpusim.Isa.Scatter { s with src = other s.src }
      | Gpusim.Isa.Shfl_idx s ->
          if k mod 2 = 0 then Gpusim.Isa.Shfl_idx { s with src = other s.src }
          else Gpusim.Isa.Shfl_idx { s with dst = other s.dst }
      | Gpusim.Isa.St_shared s when s.slots <> [] ->
          Gpusim.Isa.St_shared { s with slots = nth_slot s.slots }
      | Gpusim.Isa.Ld_shared s when s.slots <> [] ->
          Gpusim.Isa.Ld_shared { s with slots = nth_slot s.slots }
      | i -> i)
    p

let mutations =
  [|
    ("drop", fun ~map:_ k p -> drop_at k p);
    ("duplicate", fun ~map:_ k p -> duplicate_at k p);
    ("swap adjacent", fun ~map:_ k p -> swap_adjacent k p);
    ("flip table entry", fun ~map:_ k p -> flip_entry k p);
    ("flip keep bit", fun ~map:_ k p -> flip_keep k p);
    ("reverse slot list", fun ~map:_ k p -> reverse_slots k p);
    ("renumber slot", fun ~map k p -> renumber_slot ~map k p);
  |]

(* A closed-form proof of a mutated suite program implies that the
   scan proves it too.  The claimed destination is mutated as well in
   one case out of four. *)
let prop_closed_form_sound =
  QCheck.Test.make ~name:"closed-form proof implies scan proof" ~count:400
    QCheck.(triple (int_bound 100_000) (int_bound 100_000) small_nat)
    (fun (c, k, r) ->
      let cases = Array.of_list (Lazy.force closed_form_cases) in
      let (plan : Codegen.Conversion.plan), program, map = cases.(c mod Array.length cases) in
      let src = plan.Codegen.Conversion.src and dst = plan.Codegen.Conversion.dst in
      let kinds = Array.length mutations in
      let name, mutate = mutations.(k mod kinds) in
      let mutated = mutate ~map (k / kinds) program in
      let dst =
        if r mod 4 <> 0 then dst
        else
          flip_bit dst ~row:(r mod Layout.total_out_bits dst)
            ~col:(r / 4 mod Layout.total_in_bits dst)
      in
      (not (Analysis.Transval.proves_in_closed_form ~src ~dst ~map mutated))
      ||
      match (Transval_oracle.certify_isa ~src ~dst ~map mutated).Analysis.Transval.verdict with
      | Analysis.Transval.Proved -> true
      | v ->
          QCheck.Test.fail_reportf "%s: closed form proved, oracle says %s" name
            (Analysis.Transval.verdict_name v)
      | exception e ->
          QCheck.Test.fail_reportf "%s: closed form proved, oracle raised %s" name
            (Printexc.to_string e))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "transval"
    [
      ( "deterministic",
        [
          Alcotest.test_case "intact plan proved" `Quick test_intact_proved;
          Alcotest.test_case "dropped store refuted + replay" `Quick
            test_dropped_store_refuted;
          Alcotest.test_case "flipped matrix refuted + replay" `Quick
            test_flipped_matrix_refuted;
          Alcotest.test_case "round trip between shapes fails" `Quick
            test_roundtrip_different_shapes;
          Alcotest.test_case "round trip from a non-surjective source refuted" `Quick
            test_roundtrip_not_surjective;
          Alcotest.test_case "LL650/LL651/LL652 fire" `Quick test_diagnostic_codes;
          Alcotest.test_case "gather proved" `Quick test_gather_proved;
          Alcotest.test_case "clobbered gather scatter refuted" `Quick
            test_gather_clobbered_refuted;
          Alcotest.test_case "gather against other index data refuted" `Quick
            test_gather_other_index_refuted;
        ] );
      ( "fault-injection",
        q [ prop_intact_plans_prove; prop_dropped_instr; prop_swapped_rounds; prop_flipped_entry ]
      );
      ( "oracle-diff",
        Alcotest.test_case "kernel suite, all machines" `Quick test_suite_differential
        :: q
             [
               prop_fault_differential "dropped store" (fun ~map:_ k p -> drop_store k p);
               prop_flipped_differential;
               prop_fault_differential "permuted store address" (fun ~map:_ k p ->
                   permute_store_addr k p);
               prop_fault_differential "clobbered scatter slot" (fun ~map k p ->
                   clobber_scatter ~map k p);
               prop_fault_differential "bin on payload" (fun ~map k p -> bin_on_payload ~map k p);
             ] );
      ( "closed-form",
        [
          Alcotest.test_case "suite round trips and shuffles proved" `Quick
            test_closed_form_complete;
          Alcotest.test_case "a barrier between stores falls back to the scan" `Quick
            test_closed_form_fallback;
          Alcotest.test_case "route counters" `Quick test_route_counters;
        ]
        @ q [ prop_closed_form_sound ] );
      ( "immutability",
        [ Alcotest.test_case "consumers leave suite programs intact" `Quick test_programs_not_mutated ]
      );
      ( "state-reuse",
        [
          Alcotest.test_case "large plan, then small faulty ones" `Quick test_large_then_small;
          Alcotest.test_case "kernel suite on 2 domains = 1 domain" `Quick test_suite_two_domains;
        ]
        @ q [ prop_large_then_small ] );
      ( "stored-cert",
        [
          Alcotest.test_case "suite and pair plans, all machines: stored = proved" `Quick
            test_stored_cert_suite;
          Alcotest.test_case "proved, refuted and failed: one proof, then reads" `Quick
            test_stored_cert_demands;
          Alcotest.test_case "every plan's certificate is the same on all machines" `Quick
            test_cert_machine_independent;
        ] );
    ]
