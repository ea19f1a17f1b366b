(* Explore conversion planning (Section 5.4): for several pairs of
   layouts over the same tensor, show which mechanism the planner
   picks — no-op, register permutation, warp shuffles, or shared memory
   with an optimal swizzle — run its lowered program on concrete data, and compare
   its cost against the legacy padded-scratch path.

   Run with: dune exec examples/conversion_explorer.exe *)

open Linear_layout

let machine = Gpusim.Machine.gh200

let blocked ?(warps = [| 1; 1 |]) ?(order = [| 1; 0 |]) ~spt ~tpw shape =
  Blocked.make
    { shape; size_per_thread = spt; threads_per_warp = tpw; warps_per_cta = warps; order }

let explore name ~src ~dst ~byte_width =
  Printf.printf "\n=== %s ===\n" name;
  let plan = Codegen.Conversion.plan machine ~src ~dst ~byte_width in
  Printf.printf "mechanism: %s\n" (Codegen.Conversion.mechanism_name plan.mechanism);
  (match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Warp_shuffle p ->
      Printf.printf "  V (vectorized): %s\n"
        (String.concat "," (List.map string_of_int p.Codegen.Shuffle.vec));
      Printf.printf "  I (common threads): %s\n"
        (String.concat "," (List.map string_of_int p.Codegen.Shuffle.common_thr));
      Printf.printf "  G (pairings): %s\n"
        (String.concat "," (List.map string_of_int p.Codegen.Shuffle.g));
      Printf.printf "  rounds: %d, shuffles per warp: %d\n" p.Codegen.Shuffle.rounds
        (Codegen.Shuffle.total_shuffles p)
  | Codegen.Conversion.Shared_memory s ->
      Printf.printf "  vectorization: %d elems, store wf/inst: %d, load wf/inst: %d\n"
        (1 lsl s.Codegen.Swizzle_opt.vec_bits)
        s.Codegen.Swizzle_opt.store_wavefronts s.Codegen.Swizzle_opt.load_wavefronts
  | _ -> ());
  let cost = Gpusim.Cost.estimate machine (Codegen.Conversion.cost machine plan) in
  let legacy = Gpusim.Cost.estimate machine (Legacy.Convert.cost machine ~src ~dst ~byte_width) in
  Printf.printf "cost: linear %.0f vs legacy(shared+padding) %.0f -> %.2fx\n" cost legacy
    (legacy /. Float.max cost 1e-9);
  (* Run the lowered program and verify. *)
  let d = Gpusim.Dist.init src ~f:(fun i -> i lxor 0x2a) in
  let d', _ = Codegen.Lower.run machine plan d in
  assert (Gpusim.Dist.consistent_with d' ~f:(fun i -> i lxor 0x2a));
  print_endline "verified on simulated data"

let () =
  let l = blocked ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 16; 16 |] in
  explore "identical layouts (no-op)" ~src:l ~dst:l ~byte_width:4;

  let mma = Mma.output ~bitwidth:32 ~warps:[| 1; 1 |] ~shape:[| 16; 16 |] () in
  explore "blocked -> mma accumulator (same warp: shuffles)" ~src:l ~dst:mma ~byte_width:4;

  let src = blocked ~warps:[| 2; 1 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  let dst = blocked ~warps:[| 1; 2 |] ~spt:[| 2; 2 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  explore "warps move (shared memory + optimal swizzle)" ~src ~dst ~byte_width:4;

  let src_t = blocked ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |] in
  let dst_t = blocked ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |] [| 32; 32 |] in
  explore "transpose access (classic bank-conflict case)" ~src:src_t ~dst:dst_t ~byte_width:4
