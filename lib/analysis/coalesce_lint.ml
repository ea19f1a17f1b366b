open Linear_layout

let access machine ?loc ~op ~layout ~byte_width () =
  let cap = max 1 (machine.Gpusim.Machine.max_vec_bits / (8 * byte_width)) in
  let regs = Layout.in_size layout Dims.register in
  let achieved = min (Layout.num_consecutive layout ~in_dim:Dims.register) cap in
  let achievable = min regs cap in
  let vec_lint =
    if achieved < achievable then
      [
        Diagnostics.warning ~code:"LL401" ?loc
          "%s vectorizes at %d x b%d but %d x b%d is achievable: only %d consecutive \
           element(s) per thread — map the lowest register basis vectors to consecutive \
           logical addresses (size_per_thread along the fastest-varying dimension)"
          op achieved (8 * byte_width) achievable (8 * byte_width)
          (Layout.num_consecutive layout ~in_dim:Dims.register);
      ]
    else []
  in
  (* Transaction audit of one warp: each instruction covers [achieved]
     consecutive elements per lane and touches the same number of
     32-byte sectors ({!Gpusim.Coalesce.warp_sectors}); compare the
     total with the bytes actually moved. *)
  let tx_lint =
    let lanes = Layout.in_size layout Dims.lane in
    let insts = max 1 (regs / achieved) in
    let tx = insts * Gpusim.Coalesce.warp_sectors layout ~byte_width ~vec:achieved in
    let ideal_total = max insts ((insts * lanes * achieved * byte_width + 31) / 32) in
    if tx > ideal_total then
      [
        Diagnostics.warning ~code:"LL402" ?loc
          "%s is uncoalesced: one warp touches %d 32-byte sectors where %d would move the \
           same bytes — lanes do not cover consecutive addresses"
          op tx ideal_total;
      ]
    else []
  in
  vec_lint @ tx_lint
