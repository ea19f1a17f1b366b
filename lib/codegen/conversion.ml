open Linear_layout

type mechanism =
  | No_op
  | Register_permute
  | Warp_shuffle of Shuffle.t
  | Warp_shuffle_compressed of Shuffle.t
  | Shared_memory of Swizzle_opt.t
  | Global_roundtrip

type plan = { src : Layout.t; dst : Layout.t; byte_width : int; mechanism : mechanism }

let mechanism_name = function
  | No_op -> "no-op"
  | Register_permute -> "register permutation"
  | Warp_shuffle _ -> "warp shuffle"
  | Warp_shuffle_compressed _ -> "warp shuffle (broadcast)"
  | Shared_memory _ -> "shared memory"
  | Global_roundtrip -> "global memory (cross-CTA)"

let mechanism_slug = function
  | No_op -> "noop"
  | Register_permute -> "register_permute"
  | Warp_shuffle _ -> "warp_shuffle"
  | Warp_shuffle_compressed _ -> "warp_shuffle_compressed"
  | Shared_memory _ -> "shared_memory"
  | Global_roundtrip -> "global_roundtrip"

let valid_byte_width machine w =
  w >= 1 && w land (w - 1) = 0 && 8 * w <= machine.Gpusim.Machine.max_vec_bits

let check_byte_width who machine w =
  if not (valid_byte_width machine w) then
    invalid_arg
      (Printf.sprintf
         "%s: byte width %d is not valid on %s (a power of two from 1 to %d bytes)" who w
         machine.Gpusim.Machine.name (machine.Gpusim.Machine.max_vec_bits / 8))

let plan machine ~src ~dst ~byte_width =
  check_byte_width "Conversion.plan" machine byte_width;
  let mech =
    if Layout.equal src dst then No_op
    else
      let same d = Layout.flat_columns src d = Layout.flat_columns dst d in
      if same Dims.lane && same Dims.warp && same Dims.block then Register_permute
      else if not (same Dims.block) then Global_roundtrip
      else
        match Shuffle.plan ~src ~dst ~byte_width with
        | Ok p -> Warp_shuffle p
        | Error _ -> (
            (* Register-only broadcasting: shuffle the representatives. *)
            let src_c = Linear_layout.Sliced.compress src ~in_dim:Dims.register in
            let dst_c = Linear_layout.Sliced.compress dst ~in_dim:Dims.register in
            if Layout.equal src_c src && Layout.equal dst_c dst then
              Shared_memory (Swizzle_opt.optimal machine ~src ~dst ~byte_width)
            else
              match Shuffle.plan ~src:src_c ~dst:dst_c ~byte_width with
              | Ok inner -> Warp_shuffle_compressed inner
              | Error _ -> Shared_memory (Swizzle_opt.optimal machine ~src ~dst ~byte_width))
  in
  Obs.Metrics.incr ("codegen.conversion." ^ mechanism_slug mech);
  { src; dst; byte_width; mechanism = mech }

let cost machine plan =
  match plan.mechanism with
  | No_op -> Gpusim.Cost.zero ()
  | Register_permute ->
      let c = Gpusim.Cost.zero () in
      c.Gpusim.Cost.alu <- 1 lsl Layout.in_bits plan.src Dims.register;
      c
  | Warp_shuffle p -> Shuffle.cost p
  | Warp_shuffle_compressed inner ->
      let c = Shuffle.cost inner in
      (* Register moves to compress and re-broadcast. *)
      c.Gpusim.Cost.alu <-
        c.Gpusim.Cost.alu
        + (1 lsl Layout.in_bits inner.Shuffle.src Dims.register)
        + (1 lsl Layout.in_bits plan.dst Dims.register);
      c
  | Shared_memory s ->
      (* Per side: ordinary vectorized accesses with the predicted
         wavefronts, or a 4x-ganged matrix instruction when the
         ldmatrix/stmatrix tile divides the register-to-offset map
         (Section 5.3) and the machine has the instruction. *)
      let byte_width = plan.byte_width in
      let mem_inv = Layout.Memo.invert (Layout.flatten_outs s.Swizzle_opt.mem) in
      let c = Gpusim.Cost.zero () in
      let side ~layout ~predicted ~matrix_cap =
        let insts = Swizzle_opt.accesses s layout in
        let matrix_ok =
          matrix_cap
          && Simd.can_use_ldmatrix
               (Layout.Memo.compose mem_inv (Layout.flatten_outs layout))
               ~byte_width
        in
        if matrix_ok then begin
          let ganged = max 1 (insts / 4) in
          c.Gpusim.Cost.ldmatrix <- c.Gpusim.Cost.ldmatrix + ganged;
          c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + ganged
        end
        else Swizzle_opt.add_side c ~insts ~wavefronts:predicted
      in
      side ~layout:plan.src ~predicted:s.Swizzle_opt.store_wavefronts
        ~matrix_cap:machine.Gpusim.Machine.has_stmatrix;
      side ~layout:plan.dst ~predicted:s.Swizzle_opt.load_wavefronts
        ~matrix_cap:machine.Gpusim.Machine.has_ldmatrix;
      c.Gpusim.Cost.barriers <- 1;
      c
  | Global_roundtrip ->
      (* Spill everything to global memory, grid-synchronize, reload. *)
      let c = Gpusim.Cost.zero () in
      let side l =
        let regs = 1 lsl Layout.in_bits l Dims.register in
        let units =
          (1 lsl Layout.in_bits l Dims.warp) * (1 lsl Layout.in_bits l Dims.block)
        in
        let vec = max 1 (Layout.num_consecutive l ~in_dim:Dims.register) in
        c.Gpusim.Cost.gmem_insts <- c.Gpusim.Cost.gmem_insts + (max 1 (regs / vec) * units);
        c.Gpusim.Cost.gmem_transactions <-
          c.Gpusim.Cost.gmem_transactions
          + ((1 lsl Layout.total_out_bits l) * plan.byte_width / 32)
      in
      side plan.src;
      side plan.dst;
      (* Grid synchronization is far heavier than a CTA barrier. *)
      c.Gpusim.Cost.barriers <- 8;
      c
