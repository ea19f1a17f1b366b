(* The bank-conflict count's per-element form, kept as a differential
   oracle for [Codegen.Swizzle_opt.wavefronts]: every (lane, register)
   offset is computed by applying the distributed layout and the
   inverse memory layout to the full hardware index, each lane's
   offsets are sorted as a list and checked to be one aligned run, and
   each instruction's per-lane accesses go to [Gpusim.Banks.wavefronts].
   The library counts the same accesses by rank
   ([Gpusim.Banks.linear_wavefronts]); test_codegen.ml asserts both
   give identical results, including the non-contiguity error. *)

open Linear_layout

let simulate_wavefronts machine ~mem ~dist ~byte_width ~vec =
  let mem_inv = Layout.Memo.invert (Layout.flatten_outs mem) in
  let reg_bits = Layout.in_bits dist Dims.register in
  let lane_bits = Layout.in_bits dist Dims.lane in
  (* One instruction covers the same register slots in every lane
     (SIMT): the vectorized registers are those whose columns lie in the
     vectorization basis, the remaining register bits enumerate the
     instructions. *)
  let reg_cols = Array.of_list (Layout.flat_columns dist Dims.register) in
  let vec_idx =
    List.filter (fun k -> List.mem reg_cols.(k) vec) (List.init reg_bits Fun.id)
  in
  let other_idx =
    List.filter (fun k -> not (List.mem k vec_idx)) (List.init reg_bits Fun.id)
  in
  let vec_elems = 1 lsl List.length vec_idx in
  let scatter sel idxs base =
    fst
      (List.fold_left
         (fun (acc, i) k ->
           ((if sel land (1 lsl i) <> 0 then acc lor (1 lsl k) else acc), i + 1))
         (base, 0) idxs)
  in
  let reg_of ~group ~within = scatter within vec_idx (scatter group other_idx 0) in
  let offset_of =
    let to_logical = Layout.apply_flat dist and to_offset = Layout.apply_flat mem_inv in
    fun lane r -> to_offset (to_logical (r lor (lane lsl reg_bits)))
  in
  let insts = 1 lsl List.length other_idx in
  let total = ref 0 in
  for g = 0 to insts - 1 do
    let accesses =
      List.init (1 lsl lane_bits) (fun lane ->
          let offsets =
            List.init vec_elems (fun v -> offset_of lane (reg_of ~group:g ~within:v))
            |> List.sort compare
          in
          let base = List.hd offsets in
          (* The vectorized registers must map onto consecutive aligned
             offsets; the planner guarantees this for its own memory
             layouts. *)
          List.iteri
            (fun i o ->
              if o <> base + i then
                invalid_arg "Swizzle_opt.wavefronts: access is not contiguous")
            offsets;
          { Gpusim.Banks.addr = base * byte_width; bytes = vec_elems * byte_width })
    in
    total := !total + Gpusim.Banks.wavefronts machine accesses
  done;
  (!total, insts)

