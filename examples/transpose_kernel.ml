(* The Figure 2 kernel in miniature: transpose an f8 tile through
   shared memory, comparing the legacy padding heuristic against the
   optimal swizzle of Section 5.4 — and verifying on the simulator that
   the optimal swizzle moves every element correctly.

   Run with: dune exec examples/transpose_kernel.exe *)

open Linear_layout

let machine = Gpusim.Machine.gh200

let () =
  let tm, tn = (64, 64) in
  let byte_width = 1 (* f8 *) in
  (* Write layout: coalesced row-major loads; each thread grabs 16
     consecutive f8 elements of a row. *)
  let src =
    Blocked.make
      {
        shape = [| tm; tn |];
        size_per_thread = [| 1; 16 |];
        threads_per_warp = [| 8; 4 |];
        warps_per_cta = [| 4; 1 |];
        order = [| 1; 0 |];
      }
  in
  (* Read layout: the transposed access — threads walk columns so that
     the store of the transposed tile is coalesced again. *)
  let dst =
    Blocked.make
      {
        shape = [| tm; tn |];
        size_per_thread = [| 16; 1 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 1; 4 |];
        order = [| 0; 1 |];
      }
  in
  let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width in
  Format.printf "optimal shared-memory layout (offset -> tensor):@.%a@.@." Layout.pp
    s.Codegen.Swizzle_opt.mem;
  Format.printf "vectorization: %d elements per access@." (1 lsl s.Codegen.Swizzle_opt.vec_bits);
  Format.printf "predicted store wavefronts/instruction: %d@." s.Codegen.Swizzle_opt.store_wavefronts;
  Format.printf "predicted load  wavefronts/instruction: %d@.@." s.Codegen.Swizzle_opt.load_wavefronts;

  (* The exact count, by the bank rule (Lemma 9.4 in action). *)
  let sim dist =
    let wf, insts =
      Codegen.Swizzle_opt.wavefronts machine ~mem:s.Codegen.Swizzle_opt.mem ~dist
        ~byte_width ~vec:s.Codegen.Swizzle_opt.vec
    in
    Printf.printf "simulated: %d wavefronts over %d instructions (%d per inst)\n" wf insts
      (wf / insts)
  in
  sim src;
  sim dst;

  (* The legacy alternative: padded rows. *)
  let legacy = Legacy.Convert.cost machine ~src ~dst ~byte_width in
  let linear = Codegen.Swizzle_opt.cost s ~src ~dst in
  Printf.printf "\nconversion cost: legacy(padded)=%.0f  linear(optimal)=%.0f  speedup %.2fx\n"
    (Gpusim.Cost.estimate machine legacy)
    (Gpusim.Cost.estimate machine linear)
    (Gpusim.Cost.estimate machine legacy /. Gpusim.Cost.estimate machine linear);
  Printf.printf "legacy scratch: %d bytes (padding included), linear scratch: %d bytes\n"
    (Legacy.Convert.scratch_bytes ~src ~byte_width)
    (tm * tn * byte_width);

  (* Correctness: run the lowered conversion on concrete data. *)
  let plan =
    { Codegen.Conversion.src; dst; byte_width; mechanism = Codegen.Conversion.Shared_memory s }
  in
  let d = Gpusim.Dist.init src ~f:(fun i -> (i * 31) land 0xff) in
  let d', _ = Codegen.Lower.run machine plan d in
  if Gpusim.Dist.consistent_with d' ~f:(fun i -> (i * 31) land 0xff) then
    print_endline "\nconversion verified: every element landed where the read layout expects it"
  else failwith "conversion mismatch"
