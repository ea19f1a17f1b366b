(* Tests for the lib/analysis static-analysis subsystem: fault
   injection (dropped barriers, perturbed swizzles), certifier
   agreement with the brute-force bank simulator, and cleanliness of
   every shipped kernel's layout assignment. *)

open Linear_layout

let check_bool = Alcotest.(check bool)
let m = Gpusim.Machine.gh200
let has_code c ds = List.exists (fun (d : Diagnostics.t) -> d.Diagnostics.code = c) ds

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A layout pair whose conversion must go through shared memory: the
   warps tile rows on one side and columns on the other. *)
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

let smem_plan () =
  let src, dst = smem_pair () in
  let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory _ -> ()
  | _ -> Alcotest.fail "expected a shared-memory plan");
  plan

(* {1 Races} *)

let test_clean_plan () =
  let plan = smem_plan () in
  let ds = Tir.Lint.plan m plan in
  check_bool "clean plan has no analysis errors" true (Diagnostics.errors ds = [])

let test_dropped_barrier () =
  let plan = smem_plan () in
  let program, _ = Codegen.Lower.conversion m plan in
  check_bool "lowering emits a barrier" true
    (List.mem Gpusim.Isa.Bar_sync program.Gpusim.Isa.body);
  check_bool "intact program is race-free" true
    (Diagnostics.errors (Analysis.Races.check program) = []);
  let stripped =
    {
      program with
      Gpusim.Isa.body =
        List.filter (fun i -> i <> Gpusim.Isa.Bar_sync) program.Gpusim.Isa.body;
    }
  in
  check_bool "dropped barrier is flagged as LL201" true
    (has_code "LL201" (Analysis.Races.check stripped))

let test_waw_flagged_and_suppressed () =
  (* Two warps store to the same address: a race in general, benign
     when the caller proves both write the same value. *)
  let st =
    Gpusim.Isa.St_shared { slots = [ 0 ]; addr = Isa_fuzz.affine 0 [ 0 ]; byte_width = 4 }
  in
  let p = { Gpusim.Isa.warps = 2; lanes = 1; smem_elems = 4; body = [ st ] } in
  check_bool "cross-warp WAW flagged" true (has_code "LL202" (Analysis.Races.check p));
  check_bool "suppressed when proven same-value" true
    (Analysis.Races.check ~duplicate_stores_benign:true p = [])

let test_same_instr_lane_overlap () =
  let st =
    Gpusim.Isa.St_shared { slots = [ 0 ]; addr = Isa_fuzz.affine 3 [ 0 ]; byte_width = 4 }
  in
  let p = { Gpusim.Isa.warps = 1; lanes = 2; smem_elems = 4; body = [ st ] } in
  check_bool "two lanes, one address, one instruction -> LL203" true
    (has_code "LL203" (Analysis.Races.check p))

let test_war_flagged () =
  (* Warp 1 loads smem[1], then warp 0 stores over it with no barrier
     in between. *)
  let ld =
    Gpusim.Isa.Ld_shared { slots = [ 0 ]; addr = Isa_fuzz.affine 0 [ 1 ]; byte_width = 4 }
  and st =
    Gpusim.Isa.St_shared { slots = [ 1 ]; addr = Isa_fuzz.affine 1 [ 3 ]; byte_width = 4 }
  in
  let check body =
    Analysis.Races.check { Gpusim.Isa.warps = 2; lanes = 1; smem_elems = 4; body }
    |> List.map (fun (d : Diagnostics.t) -> d.Diagnostics.code)
  in
  Alcotest.(check (list string)) "cross-warp WAR -> LL204 only" [ "LL204" ] (check [ ld; st ]);
  Alcotest.(check (list string))
    "with a barrier, no race" [] (check [ ld; Gpusim.Isa.Bar_sync; st ])

let test_war_second_reader () =
  (* Both warps load smem[0], then one warp stores over it: a race with
     the other warp's load, whichever warp loaded first. *)
  let ld =
    Gpusim.Isa.Ld_shared { slots = [ 0 ]; addr = Isa_fuzz.affine 0 [ 0 ]; byte_width = 4 }
  in
  let store_by warp =
    Gpusim.Isa.St_shared { slots = [ 1 ]; addr = Isa_fuzz.affine warp [ 1 ]; byte_width = 4 }
  in
  List.iter
    (fun (warp, other) ->
      match
        Analysis.Races.check
          { Gpusim.Isa.warps = 2; lanes = 1; smem_elems = 4; body = [ ld; store_by warp ] }
      with
      | [ d ] ->
          Alcotest.(check string) "LL204" "LL204" d.Diagnostics.code;
          check_bool
            (Printf.sprintf "names reader warp %d: %s" other d.Diagnostics.message)
            true
            (contains d.Diagnostics.message (Printf.sprintf "warp %d loaded at instr 0" other))
      | ds ->
          Alcotest.failf "warp %d stores over a shared read: %d diagnostics, want one LL204"
            warp (List.length ds))
    [ (0, 1); (1, 0) ]

let test_phase_check () =
  (* The plan-level check sees a store phase followed by a load phase
     with the barrier between them deleted. *)
  let plan = smem_plan () in
  let program, _ = Codegen.Lower.conversion m plan in
  check_bool "intact plan passes the phase check" false
    (has_code "LL205" (Analysis.Races.check_lowered plan program));
  let stripped =
    {
      program with
      Gpusim.Isa.body =
        List.filter (fun i -> i <> Gpusim.Isa.Bar_sync) program.Gpusim.Isa.body;
    }
  in
  check_bool "deleted barrier -> LL205" true
    (has_code "LL205" (Analysis.Races.check_lowered plan stripped))

let test_redundant_barrier () =
  let p =
    { Gpusim.Isa.warps = 1; lanes = 32; smem_elems = 4; body = [ Gpusim.Isa.Bar_sync ] }
  in
  check_bool "barrier with no traffic -> LL210 warning" true
    (has_code "LL210" (Analysis.Races.check p));
  check_bool "LL210 is only a warning" true
    (Diagnostics.errors (Analysis.Races.check p) = [])

(* {1 Bank certification} *)

let test_perturbed_swizzle () =
  let src, dst = smem_pair () in
  let byte_width = 4 in
  let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width in
  check_bool "the optimal swizzle certifies" true
    (Diagnostics.errors (Analysis.Bank_check.swizzle m ~src ~dst ~byte_width s) = []);
  (* Un-swizzle the memory layout (keep the vectorization columns, lay
     the rest out linearly): the stored prediction no longer matches
     the simulator, which the certifier must treat as an analyzer
     error. *)
  let vec = s.Codegen.Swizzle_opt.vec in
  let span = F2.Subspace.echelon_basis vec in
  let rest =
    List.init 10 (fun i -> 1 lsl i)
    |> List.filter (fun c -> not (F2.Subspace.mem span c))
  in
  let plain = Shared.of_basis_columns ~shape:[| 32; 32 |] (vec @ rest) in
  let s' = { s with Codegen.Swizzle_opt.mem = plain } in
  let ds = Analysis.Bank_check.swizzle m ~src ~dst ~byte_width s' in
  check_bool "perturbed swizzle -> LL301" true (has_code "LL301" ds)

(* [ds] holds a [code] diagnostic of [severity] at [loc]. *)
let fires code severity loc ds =
  List.exists
    (fun (d : Diagnostics.t) ->
      d.Diagnostics.code = code && d.Diagnostics.severity = severity && d.Diagnostics.loc = loc)
    ds

(* A memory layout of [mem]'s shape whose offset bits 0 and 1 both map
   to element 1: not invertible, so it fails the memory
   characterization (Definition 4.14). *)
let aliasing mem =
  let shape = Array.of_list (List.map (fun (_, bits) -> 1 lsl bits) (Layout.out_dims mem)) in
  Shared.of_basis_columns ~shape (1 :: List.init (Layout.total_in_bits mem - 1) (fun i -> 1 lsl i))

let test_malformed_memory () =
  let src, dst = smem_pair () in
  let s = Codegen.Swizzle_opt.optimal m ~src ~dst ~byte_width:4 in
  let swizzle mem =
    Analysis.Bank_check.swizzle m ~src ~dst ~byte_width:4 { s with Codegen.Swizzle_opt.mem }
  in
  check_bool "the optimal swizzle's memory layout is well formed" false
    (has_code "LL304" (swizzle s.Codegen.Swizzle_opt.mem));
  check_bool "aliased swizzle memory -> LL304 error" true
    (fires "LL304" Diagnostics.Error (Diagnostics.Plan "swizzle")
       (swizzle (aliasing s.Codegen.Swizzle_opt.mem)));
  let staging =
    match
      Codegen.Operand_staging.plan m
        ~src:(Blocked.default ~elems_per_thread:8 ~warp_size:32 ~num_warps:4 [| 128; 64 |])
        ~dst:(Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 4; 1 |] ~shape:[| 128; 64 |] ())
        ~byte_width:2
    with
    | Some st -> st
    | None -> Alcotest.fail "expected an operand-staging plan"
  in
  check_bool "the staging plan certifies" true (Analysis.Bank_check.staging m staging = []);
  let mem = aliasing staging.Codegen.Operand_staging.mem in
  check_bool "aliased staging memory -> LL303 error" true
    (fires "LL303" Diagnostics.Error (Diagnostics.Plan "operand staging")
       (Analysis.Bank_check.staging m { staging with Codegen.Operand_staging.mem }))

(* On MI250's 64-lane wavefronts, the optimal swizzle of this 1-D pair
   loads its 2-byte elements in 2 wavefronts per instruction against a
   conflict-free 1: the bound is certified, and it is above one
   wavefront per phase.  (Its store side is one of the MI250 cases
   where the simulator measures twice the Lemma 9.4 prediction, which
   is LL301's business, not this test's.) *)
let test_optimum_above_one_wavefront () =
  let mi250 = Gpusim.Machine.mi250 in
  let layout ~regs ~lanes =
    let cols = List.map (fun c -> [ (Dims.dim 0, c) ]) in
    Layout.make
      ~ins:[ (Dims.register, List.length regs); (Dims.lane, List.length lanes) ]
      ~outs:[ (Dims.dim 0, 8) ]
      ~bases:[ (Dims.register, cols regs); (Dims.lane, cols lanes) ]
  in
  let src = layout ~regs:[ 8; 4 ] ~lanes:[ 1; 2; 32; 16; 64; 128 ] in
  let dst = layout ~regs:[ 4; 128 ] ~lanes:[ 64; 32; 2; 8; 16; 1 ] in
  let s = Codegen.Swizzle_opt.optimal mi250 ~src ~dst ~byte_width:2 in
  Alcotest.(check int) "optimal load wavefronts" 2 s.Codegen.Swizzle_opt.load_wavefronts;
  let ds = Analysis.Bank_check.swizzle mi250 ~src ~dst ~byte_width:2 s in
  match List.filter (fun (d : Diagnostics.t) -> d.Diagnostics.code = "LL302") ds with
  | [ d ] ->
      check_bool "LL302 warning on the swizzle plan's load side" true
        (fires "LL302" Diagnostics.Warning (Diagnostics.Plan "swizzle") [ d ]
        && contains d.Diagnostics.message "load side")
  | l -> Alcotest.failf "expected one LL302, got %d" (List.length l)

(* {1 Broadcast redundancy} *)

let test_broadcast_lint () =
  (* Lane bit 1 and the warp bit index copies of the same elements. *)
  let layout =
    Layout.make
      ~ins:[ (Dims.register, 1); (Dims.lane, 2); (Dims.warp, 1) ]
      ~outs:[ (Dims.dim 0, 2) ]
      ~bases:
        [
          (Dims.register, [ [ (Dims.dim 0, 1) ] ]);
          (Dims.lane, [ [ (Dims.dim 0, 2) ]; [] ]);
          (Dims.warp, [ [] ]);
        ]
  in
  let loc = Diagnostics.Tir_instr 3 in
  let lint reduced_later = Analysis.Broadcast_lint.value ~loc ~op:"exp" ~reduced_later layout in
  let ds = lint false in
  Alcotest.(check (list string))
    "free lane and warp bits" [ "LL501"; "LL502" ]
    (List.map (fun (d : Diagnostics.t) -> d.Diagnostics.code) ds);
  check_bool "LL501 warning at the instruction" true (fires "LL501" Diagnostics.Warning loc ds);
  check_bool "LL502 warning at the instruction" true (fires "LL502" Diagnostics.Warning loc ds);
  check_bool "a later reduction deduplicates the copies" true (lint true = [])

(* {1 Coalescing lints} *)

let coalesce_lint op layout =
  Analysis.Coalesce_lint.access m ~loc:(Diagnostics.Tir_instr 3) ~op ~layout ~byte_width:4 ()
  |> List.map (Format.asprintf "%a" Diagnostics.pp)

let test_under_vectorized_load () =
  (* Each thread's four f32 registers run down a column of a row-major
     tile: no two are adjacent in memory, so the 16-byte vector the
     machine allows degrades to scalar loads.  The lanes still cover
     whole rows, so the sector count is ideal. *)
  let layout =
    Blocked.make
      {
        shape = [| 64; 8 |];
        size_per_thread = [| 4; 1 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 4; 1 |];
        order = [| 1; 0 |];
      }
  in
  Alcotest.(check (list string))
    "LL401 only"
    [
      "warning[LL401]: %3: load vectorizes at 1 x b32 but 4 x b32 is achievable: only 1 \
       consecutive element(s) per thread — map the lowest register basis vectors to \
       consecutive logical addresses (size_per_thread along the fastest-varying dimension)";
    ]
    (coalesce_lint "load" layout)

let test_strided_store () =
  (* Full 16-byte vectors, but consecutive lanes own consecutive rows
     64 bytes apart: each of the four instructions touches 32 sectors
     where 16 would move its 512 bytes. *)
  let layout =
    Blocked.make
      {
        shape = [| 128; 16 |];
        size_per_thread = [| 1; 4 |];
        threads_per_warp = [| 32; 1 |];
        warps_per_cta = [| 4; 1 |];
        order = [| 1; 0 |];
      }
  in
  Alcotest.(check (list string))
    "LL402 only"
    [
      "warning[LL402]: %3: store is uncoalesced: one warp touches 128 32-byte sectors where \
       64 would move the same bytes — lanes do not cover consecutive addresses";
    ]
    (coalesce_lint "store" layout)

(* {1 TIR wiring} *)

let test_kernels_clean () =
  List.iter
    (fun (k : Tir.Kernels.kernel) ->
      let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
      let result = Tir.Engine.run m ~mode:Tir.Engine.Linear prog in
      let ds = Tir.Validate.analyze m prog ~result in
      check_bool (k.Tir.Kernels.name ^ " has no analysis errors") true
        (Diagnostics.errors ds = []))
    Tir.Kernels.all

(* {1 The search's lint gate}

   [Lint.errors] must equal the error subset of [Lint.passes]: on every
   suite triple's linear-mode engine result, on the same results with
   every shared-memory plan carrying a wrong wavefront prediction (the
   suite itself lints error-free, so that injection is what makes the
   comparison see LL301s), and on every candidate the beam-1 search
   short-lists on MI250, the search-tune machine. *)

let lint_errors_agree what machine prog result =
  let want = Diagnostics.errors (Tir.Lint.passes machine prog ~result) in
  if Tir.Lint.errors machine ~result <> want then
    Alcotest.failf "%s: Lint.errors differs from the errors of Lint.passes" what;
  List.length want

(* [r] with every shared-memory plan's store prediction off by one;
   [None] when [r] has no shared-memory plan. *)
let mispredict (r : Tir.Engine.result) =
  let shared = ref false in
  let plan (p : Codegen.Conversion.plan) =
    match p.Codegen.Conversion.mechanism with
    | Codegen.Conversion.Shared_memory s ->
        shared := true;
        let wrong = s.Codegen.Swizzle_opt.store_wavefronts + 1 in
        let s = { s with Codegen.Swizzle_opt.store_wavefronts = wrong } in
        { p with Codegen.Conversion.mechanism = Codegen.Conversion.Shared_memory s }
    | _ -> p
  in
  let conversions =
    List.map
      (fun (c : Tir.Engine.conversion_info) ->
        { c with Tir.Engine.plan = Option.map plan c.Tir.Engine.plan })
      r.Tir.Engine.conversions
  in
  if !shared then Some { r with Tir.Engine.conversions } else None

let suite_triples machines f =
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          let what = k.Tir.Kernels.name ^ "/" ^ machine.Gpusim.Machine.name in
          f machine what (k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes)))
        Tir.Kernels.all)
    machines

let test_lint_errors_suite () =
  let injected = ref 0 in
  suite_triples Gpusim.Machine.all_with_extras (fun machine what prog ->
      let result = Tir.Engine.run machine ~mode:Tir.Engine.Linear prog in
      ignore (lint_errors_agree what machine prog result);
      Option.iter
        (fun wrong ->
          injected := !injected + lint_errors_agree (what ^ " mispredicted") machine prog wrong)
        (mispredict result));
  check_bool "injected predictions are reported" true (!injected > 50)

let test_lint_errors_shortlist () =
  let entries = ref 0 and errors = ref 0 in
  suite_triples [ Gpusim.Machine.mi250 ] (fun machine what prog ->
      List.iter
        (fun (script, prog, result) ->
          incr entries;
          let script = String.concat "," (List.map string_of_int script) in
          errors :=
            !errors
            + lint_errors_agree (Printf.sprintf "%s script [%s]" what script) machine prog result)
        (Tir.Assign_search.shortlist machine ~mode:Tir.Engine.Linear
           ~params:{ Tir.Assign_search.beam = 1; domains = 1 }
           prog));
  check_bool "short-lists hold more than the greedy roots" true
    (!entries > List.length Tir.Kernels.all);
  check_bool "some candidates trip the gate" true (!errors > 0)

(* The pipeline under the pass certificates, then the verifier, the
   lint sweep and plan certification over its assignment: no
   error-severity diagnostic from either. *)
let test_certify_and_analyze () =
  let k = Tir.Kernels.find "softmax" in
  let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
  let rep = Tir.Certify.run m ~mode:Tir.Engine.Linear prog in
  Alcotest.(check (list string)) "no certificate errors" []
    (List.map (fun (d : Diagnostics.t) -> d.Diagnostics.code) (Diagnostics.errors rep.Tir.Certify.diags));
  Alcotest.(check (list string)) "no analysis errors" []
    (List.map
       (fun (d : Diagnostics.t) -> d.Diagnostics.code)
       (Diagnostics.errors (Tir.Validate.analyze m prog ~result:rep.Tir.Certify.result)))

let test_validate_codes () =
  (* A corrupted transpose assignment gets the dedicated code and the
     instruction id survives into the rendered exception. *)
  let p = Tir.Program.create () in
  let x = Tir.Program.load p ~shape:[| 16; 16 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let t = Tir.Program.trans p x ~perm:[| 1; 0 |] in
  ignore (Tir.Program.store p t);
  ignore (Tir.Engine.run m ~mode:Tir.Engine.Linear p);
  (Tir.Program.instr p t).Tir.Program.layout <- (Tir.Program.instr p x).Tir.Program.layout;
  let ds = Tir.Verifier.program p in
  check_bool "corrupted transpose -> LL605" true (has_code "LL605" ds);
  let rendered = Printexc.to_string (Tir.Validate.Invalid ds) in
  check_bool "rendered exception carries the code" true (contains rendered "LL605");
  check_bool "rendered exception carries the instruction id" true
    (contains rendered (Printf.sprintf "%%%d" t))

(* {1 Verifier codes: one corrupted instruction layout each} *)

let fires_at code at ds =
  List.exists
    (fun (d : Diagnostics.t) ->
      d.Diagnostics.code = code && d.Diagnostics.loc = Diagnostics.Tir_instr at)
    ds

(* Rebuild [l] with the basis image of input bit [(d, k)] replaced by
   [f d k image]. *)
let map_bases l f =
  Layout.make ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
    ~bases:
      (List.map
         (fun (d, bits) -> (d, List.init bits (fun k -> f d k (Layout.basis l d k))))
         (Layout.in_dims l))

(* Zero the first basis image that moves logical dimension [dim]: the
   layout keeps its shape but loses one bit of rank. *)
let drop_column l dim =
  let hit = ref false in
  map_bases l (fun _ _ img ->
      if (not !hit) && List.exists (fun (o, v) -> o = dim && v <> 0) img then begin
        hit := true;
        []
      end
      else img)

(* Exchange the first register and the first lane basis image. *)
let swap_register_lane l =
  let reg = Layout.basis l Dims.register 0 and lane = Layout.basis l Dims.lane 0 in
  map_bases l (fun d k img ->
      if k = 0 && d = Dims.register then lane else if k = 0 && d = Dims.lane then reg else img)

let set_layout p at l = (Tir.Program.instr p at).Tir.Program.layout <- l
let layout_of p at = Option.get (Tir.Program.instr p at).Tir.Program.layout

(* [build p] adds instructions after a [16 x 16] load and returns the
   instruction to inspect; [corrupt p x at] then rewrites one layout of
   the engine's assignment. *)
let verifier_fires code ~build ~corrupt () =
  let p = Tir.Program.create () in
  let x = Tir.Program.load p ~shape:[| 16; 16 |] ~dtype:Tensor_lib.Dtype.F32 () in
  let at = build p x in
  ignore (Tir.Program.store p at);
  ignore (Tir.Engine.run m ~mode:Tir.Engine.Linear p);
  check_bool "the engine's assignment verifies" true (Tir.Verifier.program p = []);
  corrupt p x at;
  check_bool (code ^ " at the corrupted instruction") true (fires_at code at (Tir.Verifier.program p))

let exp_of p x = Tir.Program.elementwise p ~name:"exp" [ x ]

let test_ll601 = verifier_fires "LL601" ~build:exp_of ~corrupt:(fun p _ at -> set_layout p at None)

let test_ll602 =
  verifier_fires "LL602" ~build:exp_of ~corrupt:(fun p _ at ->
      set_layout p at
        (Some (Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| 32; 16 |])))

let test_ll603 =
  verifier_fires "LL603" ~build:exp_of ~corrupt:(fun p _ at ->
      set_layout p at (Some (drop_column (layout_of p at) (Dims.dim 0))))

let test_ll606 =
  verifier_fires "LL606"
    ~build:(fun p x -> Tir.Program.reshape p x ~shape:[| 256 |])
    ~corrupt:(fun p _ at -> set_layout p at (Some (swap_register_lane (layout_of p at))))

(* A rank-deficient source under an expand_dims: the (intact) result
   has more rank than its input. *)
let test_ll607 =
  verifier_fires "LL607"
    ~build:(fun p x -> Tir.Program.expand_dims p x ~axis:0)
    ~corrupt:(fun p x _ -> set_layout p x (Some (drop_column (layout_of p x) (Dims.dim 0))))

(* A lane of the reduction result reads a row no lane of the input's
   slice holds. *)
let test_ll608 =
  verifier_fires "LL608"
    ~build:(fun p x -> Tir.Program.reduce p x ~axis:1)
    ~corrupt:(fun p x at ->
      let held =
        Layout.flat_columns (Layout.remove_out_dim (layout_of p x) (Dims.dim 1)) Dims.lane
      in
      let row = List.find (fun v -> not (List.mem v held)) (List.init 15 succ) in
      set_layout p at
        (Some
           (map_bases (layout_of p at) (fun d k img ->
                if d = Dims.lane && k = 0 then [ (Dims.dim 0, row) ] else img))))

let test_ll609 =
  verifier_fires "LL609"
    ~build:(fun p x ->
      let col = Tir.Program.reduce p x ~axis:1 in
      let col = Tir.Program.expand_dims p col ~axis:1 in
      Tir.Program.broadcast p col ~shape:[| 16; 16 |])
    ~corrupt:(fun p _ at -> set_layout p at (Some (drop_column (layout_of p at) (Dims.dim 0))))

(* {1 Properties} *)

(* Random CTA-wide blocked pairs: warps tile the tensor differently on
   each side, so conversions regularly go through shared memory. *)
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

let prop_plans_race_clean =
  QCheck.Test.make ~name:"every planned conversion is race- and error-free" ~count:60
    arb_cta_pair (fun (src, dst) ->
      let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
      Diagnostics.errors (Tir.Lint.plan m plan) = [])

let prop_certifier_agrees =
  (* The certifier re-derives Lemma 9.4 and must agree with the bank
     simulator on every shared-memory plan: an LL301 is by definition
     an analyzer (or planner) bug. *)
  QCheck.Test.make ~name:"bank certifier agrees with Gpusim.Banks" ~count:60 arb_cta_pair
    (fun (src, dst) ->
      let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
      match plan.Codegen.Conversion.mechanism with
      | Codegen.Conversion.Shared_memory _ ->
          not (has_code "LL301" (Analysis.Bank_check.conversion m plan))
      | _ -> QCheck.assume_fail ())

(* Ground truth for the race checker, recomputed pair by pair: within
   each barrier phase, two accesses to one element race when they come
   from different warps and at least one is a store, or when two
   threads store it in the same instruction.  Accesses are grouped by
   element, so every pair that shares one is compared. *)
let race_exists (p : Gpusim.Isa.program) =
  let phase = Hashtbl.create 64 and found = ref false in
  let racy (idx, store, w, l) (idx', store', w', l') =
    if idx = idx' then store && (w, l) <> (w', l') else (store || store') && w <> w'
  in
  List.iteri
    (fun idx i ->
      match i with
      | Gpusim.Isa.Bar_sync -> Hashtbl.reset phase
      | Gpusim.Isa.St_shared { slots; addr; _ } | Gpusim.Isa.Ld_shared { slots; addr; _ } ->
          let store = match i with Gpusim.Isa.St_shared _ -> true | _ -> false in
          Array.iteri
            (fun w lanes ->
              Array.iteri
                (fun l a0 ->
                  List.iteri
                    (fun k _ ->
                      let access = (idx, store, w, l) in
                      let prev = Option.value ~default:[] (Hashtbl.find_opt phase (a0 + k)) in
                      found := !found || List.exists (racy access) prev;
                      Hashtbl.replace phase (a0 + k) (access :: prev))
                    slots)
                lanes)
            (Isa_fuzz.rows p addr)
      | _ -> ())
    p.Gpusim.Isa.body;
  !found

let race_free p = Diagnostics.errors (Analysis.Races.check p) = []

let prop_stripped_plans_match_oracle =
  (* Differential test: strip the barriers from a lowered plan and the
     checker must report an error exactly when the pair oracle finds a
     race. *)
  QCheck.Test.make ~name:"race checker matches pair oracle on stripped plans" ~count:40
    arb_cta_pair (fun (src, dst) ->
      let plan = Codegen.Conversion.plan m ~src ~dst ~byte_width:4 in
      match plan.Codegen.Conversion.mechanism with
      | Codegen.Conversion.Shared_memory _ ->
          let program, _ = Codegen.Lower.conversion m plan in
          let stripped =
            {
              program with
              Gpusim.Isa.body =
                List.filter (fun i -> i <> Gpusim.Isa.Bar_sync) program.Gpusim.Isa.body;
            }
          in
          Bool.equal (race_exists stripped) (not (race_free stripped))
      | _ -> QCheck.assume_fail ())

(* The two-instruction programs of a body's shared-memory accesses, in
   program order. *)
let access_pairs body =
  let rec pairs = function [] -> [] | a :: rest -> List.map (fun b -> [ a; b ]) rest @ pairs rest in
  pairs
    (List.filter
       (function Gpusim.Isa.St_shared _ | Gpusim.Isa.Ld_shared _ -> true | _ -> false)
       body)

let prop_fuzzed_programs_match_oracle =
  (* The same differential on random well-formed ISA programs with
     their barriers kept, and on every two-access program taken from
     one, where no other race can hide a missed one. *)
  QCheck.Test.make ~name:"race checker matches pair oracle on fuzzed ISA" ~count:5000
    QCheck.(make ~print:string_of_int Gen.int)
    (fun seed ->
      let p, _ = Isa_fuzz.fuzz_isa_program (Random.State.make [| seed |]) in
      let agrees body =
        let q = { p with Gpusim.Isa.body } in
        Bool.equal (race_exists q) (not (race_free q))
      in
      if List.exists (fun i -> Gpusim.Isa.fault p i <> None) p.Gpusim.Isa.body then
        QCheck.assume_fail ()
      else agrees p.Gpusim.Isa.body && List.for_all agrees (access_pairs p.Gpusim.Isa.body))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "races",
        [
          Alcotest.test_case "clean plan" `Quick test_clean_plan;
          Alcotest.test_case "dropped barrier" `Quick test_dropped_barrier;
          Alcotest.test_case "waw flagged and suppressed" `Quick test_waw_flagged_and_suppressed;
          Alcotest.test_case "same-instr lane overlap" `Quick test_same_instr_lane_overlap;
          Alcotest.test_case "cross-warp WAR -> LL204" `Quick test_war_flagged;
          Alcotest.test_case "WAR after a shared read -> LL204" `Quick test_war_second_reader;
          Alcotest.test_case "deleted phase barrier -> LL205" `Quick test_phase_check;
          Alcotest.test_case "redundant barrier" `Quick test_redundant_barrier;
        ] );
      ( "banks",
        [
          Alcotest.test_case "perturbed swizzle" `Quick test_perturbed_swizzle;
          Alcotest.test_case "malformed memory layout (LL303, LL304)" `Quick
            test_malformed_memory;
          Alcotest.test_case "optimum above one wavefront (LL302)" `Quick
            test_optimum_above_one_wavefront;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "free lane and warp bits (LL501, LL502)" `Quick
            test_broadcast_lint;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "under-vectorized load (LL401)" `Quick test_under_vectorized_load;
          Alcotest.test_case "strided store (LL402)" `Quick test_strided_store;
        ] );
      ( "tir",
        [
          Alcotest.test_case "all kernels clean" `Quick test_kernels_clean;
          Alcotest.test_case "certify + analyze clean" `Quick test_certify_and_analyze;
          Alcotest.test_case "validate codes" `Quick test_validate_codes;
          Alcotest.test_case "no layout fires LL601" `Quick test_ll601;
          Alcotest.test_case "wrong shape fires LL602" `Quick test_ll602;
          Alcotest.test_case "lost rank fires LL603" `Quick test_ll603;
          Alcotest.test_case "reshaped matrix fires LL606" `Quick test_ll606;
          Alcotest.test_case "expand above its input's rank fires LL607" `Quick test_ll607;
          Alcotest.test_case "reduction off the slice fires LL608" `Quick test_ll608;
          Alcotest.test_case "broadcast losing its input fires LL609" `Quick test_ll609;
          Alcotest.test_case "Lint.errors = errors of Lint.passes, suite" `Quick
            test_lint_errors_suite;
          Alcotest.test_case "Lint.errors = errors of Lint.passes, search short-lists" `Quick
            test_lint_errors_shortlist;
        ] );
      ( "properties",
        [
          q prop_plans_race_clean;
          q prop_certifier_agrees;
          q prop_stripped_plans_match_oracle;
          q prop_fuzzed_programs_match_oracle;
        ] );
    ]
