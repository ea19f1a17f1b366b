open Linear_layout

let padded_offset ~cols ~pad i j = (i * (cols + pad)) + j
(* Pad by one maximal vector (16 bytes) so row starts stay aligned for
   vectorized accesses while successive rows shift banks. *)
let default_pad ~byte_width = max 1 (16 / byte_width)

let measure machine ~dist ~addr_of ~byte_width =
  let to_logical = Layout.apply_flat dist in
  let reg_bits = Layout.in_bits dist Dims.register in
  let lane_bits = Layout.in_bits dist Dims.lane in
  let regs = 1 lsl reg_bits and lanes = 1 lsl lane_bits in
  let addr lane r = addr_of (to_logical (r lor (lane lsl reg_bits))) in
  let max_vec_elems =
    min regs (max 1 (machine.Gpusim.Machine.max_vec_bits / (8 * byte_width)))
  in
  let legal v =
    let ok = ref true in
    for lane = 0 to lanes - 1 do
      let r = ref 0 in
      while !r < regs do
        let base = addr lane !r in
        if base * byte_width mod (v * byte_width) <> 0 then ok := false;
        for i = 1 to v - 1 do
          if addr lane (!r + i) <> base + i then ok := false
        done;
        r := !r + v
      done
    done;
    !ok
  in
  let rec find_vec v = if v = 1 || legal v then v else find_vec (v / 2) in
  let vec = find_vec max_vec_elems in
  let insts = regs / vec in
  let total = ref 0 in
  for g = 0 to insts - 1 do
    let accesses =
      List.init lanes (fun lane ->
          { Gpusim.Banks.addr = addr lane (g * vec) * byte_width; bytes = vec * byte_width })
    in
    total := !total + Gpusim.Banks.wavefronts machine accesses
  done;
  (!total, insts, vec)

(* Output dims are canonically ordered fastest-first, so the head is the
   column (fastest) dimension and the rest are rows. *)
let rows_cols l =
  match Layout.out_dims l with
  | [] -> (1, 1)
  | (_, cols_bits) :: rest ->
      (1 lsl List.fold_left (fun acc (_, b) -> acc + b) 0 rest, 1 lsl cols_bits)

let addr_fn ~src ~byte_width =
  let _, cols = rows_cols src in
  let pad = default_pad ~byte_width in
  fun logical ->
    let j = logical land (cols - 1) and i = logical / cols in
    padded_offset ~cols ~pad i j

let cost machine ~src ~dst ~byte_width =
  let addr_of = addr_fn ~src ~byte_width in
  let st_wf, st_insts, _ = measure machine ~dist:src ~addr_of ~byte_width in
  let ld_wf, ld_insts, _ = measure machine ~dist:dst ~addr_of ~byte_width in
  let warps l = 1 lsl Layout.in_bits l Dims.warp in
  let c = Gpusim.Cost.zero () in
  c.Gpusim.Cost.smem_insts <- (st_insts * warps src) + (ld_insts * warps dst);
  c.Gpusim.Cost.smem_wavefronts <- (st_wf * warps src) + (ld_wf * warps dst);
  c.Gpusim.Cost.barriers <- 1;
  c.Gpusim.Cost.alu <- 2 * ((st_insts * warps src) + (ld_insts * warps dst));
  c

let store_only_cost machine ~src ~dst ~byte_width =
  ignore dst;
  let addr_of = addr_fn ~src ~byte_width in
  let st_wf, st_insts, _ = measure machine ~dist:src ~addr_of ~byte_width in
  let warps = 1 lsl Layout.in_bits src Dims.warp in
  let c = Gpusim.Cost.zero () in
  c.Gpusim.Cost.smem_insts <- st_insts * warps;
  c.Gpusim.Cost.smem_wavefronts <- st_wf * warps;
  c.Gpusim.Cost.barriers <- 1;
  c.Gpusim.Cost.alu <- 2 * st_insts * warps;
  c

let scratch_bytes ~src ~byte_width =
  let rows, cols = rows_cols src in
  rows * (cols + default_pad ~byte_width) * byte_width
