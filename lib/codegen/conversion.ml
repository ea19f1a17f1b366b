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

let plan machine ~src ~dst ~byte_width =
  let mech =
    if Layout.equal src dst then No_op
    else
      let same d = Layout.flat_columns src d = Layout.flat_columns dst d in
      if same Dims.lane && same Dims.warp && same Dims.block then Register_permute
      else if not (same Dims.block) then Global_roundtrip
      else
        match Shuffle.plan machine ~src ~dst ~byte_width with
        | Ok p -> Warp_shuffle p
        | Error _ -> (
            (* Register-only broadcasting: shuffle the representatives. *)
            let src_c = Linear_layout.Sliced.compress src ~in_dim:Dims.register in
            let dst_c = Linear_layout.Sliced.compress dst ~in_dim:Dims.register in
            if Layout.equal src_c src && Layout.equal dst_c dst then
              Shared_memory (Swizzle_opt.optimal machine ~src ~dst ~byte_width)
            else
              match Shuffle.plan machine ~src:src_c ~dst:dst_c ~byte_width with
              | Ok inner -> Warp_shuffle_compressed inner
              | Error _ -> Shared_memory (Swizzle_opt.optimal machine ~src ~dst ~byte_width))
  in
  Obs.Metrics.incr ("codegen.conversion." ^ mechanism_slug mech);
  { src; dst; byte_width; mechanism = mech }

let execute_algebraic plan (d : Gpusim.Dist.t) =
  (* For every destination hardware point, read the value from the
     source point holding the same logical element. *)
  let a = Layout.flatten_outs plan.src in
  let to_src = Layout.apply_flat (Layout.Memo.pseudo_invert (Layout.flatten_ins a)) in
  let to_logical = Layout.apply_flat plan.dst in
  let n = 1 lsl Layout.total_in_bits plan.dst in
  let data = Array.init n (fun hw_dst -> d.Gpusim.Dist.data.(to_src (to_logical hw_dst))) in
  { Gpusim.Dist.layout = plan.dst; data }

let execute plan d =
  match plan.mechanism with
  | No_op -> { d with Gpusim.Dist.layout = plan.dst }
  | Warp_shuffle p -> Shuffle.execute p d
  | Warp_shuffle_compressed inner ->
      (* Compress into the shuffle's source layout, exchange the
         representatives on the real executor, then re-broadcast from
         the shuffle's destination into the duplicate registers. *)
      let compressed = execute_algebraic { plan with dst = inner.Shuffle.src; mechanism = No_op } d in
      let compressed = { compressed with Gpusim.Dist.layout = inner.Shuffle.src } in
      let shuffled = Shuffle.execute inner compressed in
      execute_algebraic { plan with src = inner.Shuffle.dst; mechanism = No_op } shuffled
  | Register_permute | Shared_memory _ | Global_roundtrip -> execute_algebraic plan d

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
        let warps = 1 lsl Layout.in_bits layout Dims.warp in
        let insts =
          max 1 (1 lsl Layout.in_bits layout Dims.register / (1 lsl s.Swizzle_opt.vec_bits))
          * warps
        in
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
        else begin
          c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + insts;
          c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + (insts * predicted);
          c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + (2 * insts)
        end
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
