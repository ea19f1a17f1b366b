open Linear_layout

type t = {
  mem : Layout.t;
  vec : int list;
  seg : int list;
  bank : int list;
  vec_bits : int;
  store_wavefronts : int;
  load_wavefronts : int;
}

let nonzero_cols l d = List.filter (fun c -> c <> 0) (Layout.flat_columns l d)
let set_diff a b = List.filter (fun x -> not (List.mem x b)) a
let set_inter a b = List.filter (fun x -> List.mem x b) a
let take n l = List.filteri (fun i _ -> i < n) l
let drop_last k l = take (max 0 (List.length l - k)) l

let logical_shape l =
  let dims = Layout.out_dims l in
  let rank = List.length dims in
  let shape = Array.make rank 1 in
  List.iter
    (fun (d, bits) ->
      match Dims.dim_index d with
      | Some i -> shape.(i) <- 1 lsl bits
      | None -> invalid_arg "Swizzle_opt: layouts must map onto logical dimensions")
    dims;
  shape

(* The first [needed] candidates that extend the span of [base] and
   of the candidates picked before them. *)
let pick ~base ~needed candidates = take needed (F2.Subspace.extend base candidates)

let banks_per_access ~vec_bits ~byte_width = max 1 ((1 lsl vec_bits) * byte_width / 4)

let predict_wavefronts machine ~vec ~seg ~dist ~byte_width =
  ignore machine;
  let vec_bits = List.length vec in
  let n = banks_per_access ~vec_bits ~byte_width in
  let thr = nonzero_cols dist Dims.lane in
  let bank_thr = drop_last (Util.log2 n) thr in
  let inter = F2.Subspace.intersection (vec @ seg) bank_thr in
  n * (1 lsl List.length inter)

let optimal machine ~src ~dst ~byte_width =
  if Layout.logical_space src <> Layout.logical_space dst then
    invalid_arg "Swizzle_opt.optimal: layouts cover different logical spaces";
  let a = Layout.flatten_outs src and b = Layout.flatten_outs dst in
  let d = Layout.total_out_bits a in
  let a_reg = nonzero_cols a Dims.register and b_reg = nonzero_cols b Dims.register in
  let a_thr = nonzero_cols a Dims.lane and b_thr = nonzero_cols b Dims.lane in
  (* V: common register basis, capped at the widest vectorized access. *)
  let max_v = Util.log2 (machine.Gpusim.Machine.max_vec_bits / 8 / byte_width) in
  let vec = take max_v (List.sort compare (set_inter a_reg b_reg)) in
  let v = List.length vec in
  let n = banks_per_access ~vec_bits:v ~byte_width in
  let k = Util.log2 n in
  (* Bank space: vectorized elements needed to cover all 32 banks. *)
  let bank_bytes_total =
    machine.Gpusim.Machine.num_banks * machine.Gpusim.Machine.bank_bytes
  in
  let b_nominal =
    if (1 lsl v) * byte_width >= bank_bytes_total then 0
    else Util.log2 (bank_bytes_total / ((1 lsl v) * byte_width))
  in
  let b_bits = min b_nominal (d - v) in
  let s = d - v - b_bits in
  (* Thread columns that matter for conflicts: vectorized accesses wider
     than a bank are split into phases selected by the last thread
     bits, which therefore cannot conflict. *)
  let a_bank = drop_last k a_thr and b_bank = drop_last k b_thr in
  let e0 = List.sort compare (set_diff a_bank b_bank) in
  let f0 = List.sort compare (set_diff b_bank a_bank) in
  let e, f = if List.length e0 <= List.length f0 then (e0, f0) else (f0, e0) in
  let h = List.map2 ( lxor ) e (take (List.length e) f) in
  let p_basis = vec @ a_bank @ b_bank in
  let c_comp = F2.Subspace.complete_basis ~dim:d p_basis in
  (* Segment basis: prefer H (conflict-free for both sides), then the
     complement C; fall back to A's thread columns (unavoidable
     conflicts), then arbitrary completion. *)
  let seg = pick ~base:vec ~needed:s (h @ c_comp) in
  let seg =
    if List.length seg < s then
      seg @ pick ~base:(vec @ seg) ~needed:(s - List.length seg) a_bank
    else seg
  in
  let seg =
    if List.length seg < s then
      seg
      @ take (s - List.length seg) (F2.Subspace.complete_basis ~dim:d (vec @ seg))
    else seg
  in
  let bank = F2.Subspace.complete_basis ~dim:d (vec @ seg) in
  (* For sub-word element widths the lowest [log2 (4 / w)] offset bits
     select a byte within a 4-byte bank word.  A thread column placed
     there would make lanes that differ in it share a bank while
     differing in the word (via the paired segment bit) — a conflict the
     bank simulator confirms.  Order the bank space so thread columns
     occupy word-address bits and only non-thread columns (typically
     register columns) fill the byte bits. *)
  let bank =
    let byte_bits = if (1 lsl v) * byte_width >= 4 then 0 else Util.log2 (4 / ((1 lsl v) * byte_width)) in
    if byte_bits = 0 then bank
    else
      let is_thread c = List.mem c a_thr || List.mem c b_thr in
      let non_thread, thread = List.partition (fun c -> not (is_thread c)) bank in
      non_thread @ thread
  in
  let mem = Shared.of_basis_columns ~shape:(logical_shape src) (vec @ bank @ seg) in
  let store_wf = predict_wavefronts machine ~vec ~seg ~dist:src ~byte_width in
  let load_wf = predict_wavefronts machine ~vec ~seg ~dist:dst ~byte_width in
  Obs.Metrics.observe "codegen.swizzle.vec_bits" v;
  Obs.Metrics.observe "codegen.swizzle.store_wavefronts" store_wf;
  Obs.Metrics.observe "codegen.swizzle.load_wavefronts" load_wf;
  if store_wf <= 1 && load_wf <= 1 then
    Obs.Metrics.incr "codegen.swizzle.conflict_free";
  {
    mem;
    vec;
    seg;
    bank;
    vec_bits = v;
    store_wavefronts = store_wf;
    load_wavefronts = load_wf;
  }

let wavefronts machine ~mem ~dist ~byte_width ~vec =
  let mem_inv = Layout.Memo.invert (Layout.flatten_outs mem) in
  let reg_bits = Layout.in_bits dist Dims.register in
  (* The offset of (lane, register) is linear in the hardware index
     [r lor (lane lsl reg_bits)] (§5.4): [image k] is the offset of
     hardware bit [k]. *)
  let image k = Layout.apply_flat mem_inv (Layout.apply_flat dist (1 lsl k)) in
  (* One instruction covers the same register slots in every lane
     (SIMT): the vectorized registers are those whose columns lie in the
     vectorization basis, the remaining register bits enumerate the
     instructions.  The vectorized registers must map onto consecutive
     aligned offsets, i.e. their images span exactly the low offset
     bits; the planner guarantees this for its own memory layouts. *)
  let vec_imgs =
    List.concat
      (List.mapi
         (fun k c -> if List.mem c vec then [ image k ] else [])
         (Layout.flat_columns dist Dims.register))
  in
  let k = List.length vec_imgs in
  if F2.Subspace.dim vec_imgs < k || List.exists (fun o -> o lsr k <> 0) vec_imgs then
    invalid_arg "Swizzle_opt.wavefronts: access is not contiguous";
  let lanes = List.init (Layout.in_bits dist Dims.lane) (fun j -> image (reg_bits + j)) in
  let insts = 1 lsl (reg_bits - k) in
  (insts * Gpusim.Banks.linear_wavefronts machine ~byte_width ~vec_bits:k lanes, insts)

let accesses t dist =
  max 1 (1 lsl Layout.in_bits dist Dims.register / (1 lsl t.vec_bits))
  * (1 lsl Layout.in_bits dist Dims.warp)

let add_side (c : Gpusim.Cost.t) ~insts ~wavefronts =
  c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + insts;
  c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + (insts * wavefronts);
  c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + (2 * insts)

let cost t ~src ~dst =
  let c = Gpusim.Cost.zero () in
  add_side c ~insts:(accesses t src) ~wavefronts:t.store_wavefronts;
  add_side c ~insts:(accesses t dst) ~wavefronts:t.load_wavefronts;
  c.Gpusim.Cost.barriers <- 1;
  c
