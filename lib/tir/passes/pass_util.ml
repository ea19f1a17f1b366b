open Linear_layout

(* {1 Layout construction helpers} *)

let bits_of dtype = Tensor_lib.Dtype.bits dtype
let byte_width_of dtype = max 1 (bits_of dtype / 8)

let pow2_floor n =
  let rec go k = if 1 lsl (k + 1) > n then 1 lsl k else go (k + 1) in
  if n < 1 then 1 else go 0

(* The anchor and dot layouts below are pure functions of the machine's
   warp size (and vendor, for dot layouts), the warp count, the shape
   and the dtype(s), so each is built once per key and domain in a
   [Layout.Memo] table, and stored interned.  Keys hold exactly those
   inputs — never the machine name, which ad-hoc machines reuse — and a
   copy of the caller's shape array. *)
let blocked_t = Layout.Memo.table ()
let candidates_t = Layout.Memo.table ()
let dot_t = Layout.Memo.table ()

(* Elements per thread of a full 128-bit run, capped by the tensor's
   share per thread. *)
let vector_ept ~warp_size ~num_warps ~shape ~dtype =
  let numel = Array.fold_left ( * ) 1 shape in
  pow2_floor (max 1 (min (128 / bits_of dtype) (numel / (warp_size * num_warps))))

let default_blocked machine ~num_warps ~shape ~dtype =
  let warp_size = machine.Gpusim.Machine.warp_size in
  Layout.Memo.find_or_add blocked_t (warp_size, num_warps, Array.copy shape, dtype) (fun () ->
      let ept = vector_ept ~warp_size ~num_warps ~shape ~dtype in
      Layout.Memo.intern (Blocked.default ~elems_per_thread:ept ~warp_size ~num_warps shape))

(* The anchor candidate set explored by search strategies: a small
   neighborhood around the greedy pick — scalar, half-vector and
   full-vector runs at the coalesced (row-major) order, plus the
   order-flipped full-vector variant.  Candidates are cut before
   costing when inexpressible as a distributed linear layout
   (Definition 4.10) or when they duplicate the default/each other;
   the returned count records how many were cut. *)
let anchor_candidates machine ~num_warps ~shape ~dtype =
  let warp_size = machine.Gpusim.Machine.warp_size in
  Layout.Memo.find_or_add candidates_t (warp_size, num_warps, Array.copy shape, dtype)
    (fun () ->
      let default = default_blocked machine ~num_warps ~shape ~dtype in
      let cap = vector_ept ~warp_size ~num_warps ~shape ~dtype in
      let n = Array.length shape in
      let fwd_order = Array.init n (fun i -> n - 1 - i) in
      let rev_order = Array.init n (fun i -> i) in
      let bl ~order ~ept =
        Layout.Memo.intern
          (Blocked.default ~order ~elems_per_thread:ept ~warp_size ~num_warps shape)
      in
      let raw =
        [
          bl ~order:fwd_order ~ept:1;
          bl ~order:fwd_order ~ept:(max 1 (cap / 2));
          bl ~order:fwd_order ~ept:cap;
          bl ~order:rev_order ~ept:cap;
        ]
      in
      let pruned = ref 0 in
      let keep =
        List.fold_left
          (fun acc l ->
            if
              Layout.is_distributed l
              && (not (Layout.equal l default))
              && not (List.exists (Layout.equal l) acc)
            then l :: acc
            else begin
              incr pruned;
              acc
            end)
          [] raw
      in
      (List.rev keep, !pruned))

(* Reify the anchor choice as a decision site and commit the strategy's
   pick.  The alternatives stay an unforced lazy under the greedy
   strategy (choice [0] without inspecting the arity). *)
let choose_anchor (st : Pass.state) ~at ~shape ~dtype =
  let machine = st.Pass.machine and num_warps = st.Pass.num_warps in
  let default = default_blocked machine ~num_warps ~shape ~dtype in
  let alternatives = lazy (anchor_candidates machine ~num_warps ~shape ~dtype) in
  let c =
    Pass.decide st
      (Strategy.Anchor
         {
           Strategy.anchor_at = at;
           anchor_default = default;
           anchor_alternatives = alternatives;
         })
  in
  if c = 0 then default else List.nth (fst (Lazy.force alternatives)) (c - 1)

let mma_bitwidth dtype = min 32 (max 4 (bits_of dtype))

(* The mma path requires each tensor dimension to hold at least one
   operand/output tile; tile sizes depend on the element bitwidths
   (an f8 lhs tile is 16 x 32, an f16 one 16 x 16, ...). *)
let dot_fits ~m ~n ~k ~a_bits ~b_bits =
  let size t d = Layout.out_size t (Dims.dim d) in
  let lhs = Mma.operand_tile ~idx:0 ~bitwidth:a_bits in
  let rhs = Mma.operand_tile ~idx:1 ~bitwidth:b_bits in
  let out = Mma.output_tile ~bitwidth:32 in
  m >= max (size lhs 0) (size out 0)
  && n >= max (size rhs 1) (size out 1)
  && k >= max (size lhs 1) (size rhs 0)

let dot_layouts machine ~num_warps ~m ~n ~k ~a_dtype ~b_dtype =
  let vendor = machine.Gpusim.Machine.vendor in
  Layout.Memo.find_or_add dot_t
    (machine.Gpusim.Machine.warp_size, vendor, num_warps, m, n, k, a_dtype, b_dtype)
    (fun () ->
      let warps = [| num_warps; 1 |] in
      let a_bits = mma_bitwidth a_dtype and b_bits = mma_bitwidth b_dtype in
      if not (dot_fits ~m ~n ~k ~a_bits ~b_bits) then
        (* Small shapes: linear layouts still provide a valid distributed
           layout via blocked encodings (Section 6.1's point is that legacy
           cannot). *)
        let bl shape dt = default_blocked machine ~num_warps ~shape ~dtype:dt in
        (false, bl [| m; n |] a_dtype, bl [| m; k |] a_dtype, bl [| k; n |] b_dtype)
      else
        let out_tile =
          match vendor with
          | Gpusim.Machine.Amd -> Mma.mfma_output_tile ~m:16
          | Gpusim.Machine.Intel -> Mma.xmx_output_tile ()
          | Gpusim.Machine.Nvidia -> Mma.output_tile ~bitwidth:32
        in
        let out =
          match vendor with
          | Gpusim.Machine.Amd -> Mma.mfma_output ~m:16 ~warps ~shape:[| m; n |] ()
          | Gpusim.Machine.Intel -> Mma.xmx_output ~warps ~shape:[| m; n |] ()
          | Gpusim.Machine.Nvidia -> Mma.output ~bitwidth:32 ~warps ~shape:[| m; n |] ()
        in
        let a = Mma.operand ~out_tile ~idx:0 ~bitwidth:a_bits ~warps ~shape:[| m; k |] () in
        let b = Mma.operand ~out_tile ~idx:1 ~bitwidth:b_bits ~warps ~shape:[| k; n |] () in
        Layout.Memo.(true, intern out, intern a, intern b))

(* Legacy vectorization: contiguity is only recognized within the
   fastest dimension (Section 5.1). *)
let legacy_vec layout =
  let consec = Layout.num_consecutive layout ~in_dim:Dims.register in
  match Layout.out_dims layout with
  | (_, cols_bits) :: _ :: _ when cols_bits > 0 -> min consec (1 lsl cols_bits)
  | _ -> consec

let linear_vec machine layout ~byte_width =
  let cap = machine.Gpusim.Machine.max_vec_bits / (8 * byte_width) in
  min (Layout.num_consecutive layout ~in_dim:Dims.register) (max 1 cap)

let vec_for (st : Pass.state) layout ~byte_width =
  match st.Pass.mode with
  | Pass.Linear -> linear_vec st.Pass.machine layout ~byte_width
  | Pass.Legacy_mode -> legacy_vec layout

(* Instruction and transaction counts for a warp-level global access
   under the given vectorization, summed over all warps.  Every one of
   the [regs / vec] instructions touches the same number of sectors
   (see {!Gpusim.Coalesce.warp_sectors}). *)
let global_access_counts layout ~byte_width ~vec =
  let insts = max 1 (Layout.in_size layout Dims.register / vec) in
  let warps = Layout.in_size layout Dims.warp in
  (insts * warps, insts * Gpusim.Coalesce.warp_sectors layout ~byte_width ~vec * warps)

(* The [in_dim] bits of [l] whose basis vector moves along output
   dimension [axis]: the rounds of a warp or cross-warp reduction or
   scan over that axis. *)
let axis_bits l in_dim ~axis =
  let mask = Layout.out_mask l (Dims.dim axis) in
  let n = ref 0 in
  for k = 0 to Layout.in_bits l in_dim - 1 do
    if Layout.basis_flat l in_dim k land mask <> 0 then incr n
  done;
  !n

(* Abstract time of converting [src] to [dst], used by the backward
   pass's remat-vs-convert and direct-store-vs-anchor comparisons. *)
let convert_estimate (st : Pass.state) ~src ~dst ~byte_width =
  let machine = st.Pass.machine in
  match st.Pass.mode with
  | Pass.Linear ->
      Gpusim.Cost.estimate machine
        (snd (Codegen.Plan_cache.priced machine ~src ~dst ~byte_width))
  | Pass.Legacy_mode ->
      Gpusim.Cost.estimate machine (Legacy.Convert.cost machine ~src ~dst ~byte_width)

(* A forward transfer is a pure function of its sources, the op's
   integer arguments and the result shape: [Array.append] copies both
   arrays into the key. *)
let transfer op srcs ~args ~shape compute =
  Layout.Memo.derive op srcs (Array.append args shape) compute

let sliced_kind = function
  | Legacy.Support.Blocked -> Legacy.Support.Sliced_blocked
  | Legacy.Support.Mma -> Legacy.Support.Sliced_mma
  | Legacy.Support.Mma_input -> Legacy.Support.Sliced_mma_input
  | k -> k

let rename_dims_above l ~axis ~delta =
  (* Renames dimK -> dimK+delta for K >= axis (delta = +1/-1). *)
  let spec =
    Layout.out_dims l
    |> List.filter_map (fun (d, _) ->
           match Dims.dim_index d with
           | Some k when k >= axis -> Some (d, Dims.dim (k + delta))
           | _ -> None)
  in
  if spec = [] then l else Layout.exchange_out_names l spec

(* Broadcast transfer: grow size-1 output dimensions to [shape].  The
   new elements are assigned, per dimension (fastest first), to the
   input's *free* lane and warp bits — the bits a reduction freed — with
   fresh registers covering the remainder at the low end, mirroring the
   blocked construction.  When the input is the slice of a blocked
   layout this reconstructs the parent exactly, so conversions against
   the original tensor fold to no-ops (the welford case, Section 6.2). *)
let broadcast_layout l ~shape =
  let rank = Array.length shape in
  let masks = Layout.Memo.free_variable_masks l in
  let free_bits dim =
    let mask = try List.assoc dim masks with Not_found -> 0 in
    ref (F2.Bitvec.support mask)
  in
  let free_lane = free_bits Dims.lane and free_warp = free_bits Dims.warp in
  let image_of in_dim k = Layout.basis l in_dim k in
  let lane_images =
    Array.init (Layout.in_bits l Dims.lane) (image_of Dims.lane)
  in
  let warp_images =
    Array.init (Layout.in_bits l Dims.warp) (image_of Dims.warp)
  in
  let reg_existing =
    List.init (Layout.in_bits l Dims.register) (image_of Dims.register)
  in
  let reg_prepends = ref [] (* fastest dim first *) in
  for di = 0 to rank - 1 do
    let d = rank - 1 - di (* fastest (last) dimension first *) in
    let have = Layout.out_bits l (Dims.dim d) in
    let want = Util.log2 shape.(d) in
    if want > have then begin
      let need = want - have in
      let lanes_take = min (List.length !free_lane) need in
      let warps_take = min (List.length !free_warp) (need - lanes_take) in
      let reg_low = need - lanes_take - warps_take in
      let coord j = [ (Dims.dim d, 1 lsl (have + j)) ] in
      reg_prepends := !reg_prepends @ [ List.init reg_low coord ];
      List.iteri
        (fun idx bit ->
          if idx < lanes_take then lane_images.(bit) <- coord (reg_low + idx))
        !free_lane;
      List.iteri
        (fun idx bit ->
          if idx < warps_take then warp_images.(bit) <- coord (reg_low + lanes_take + idx))
        !free_warp;
      let drop n lst = List.filteri (fun i _ -> i >= n) lst in
      free_lane := drop lanes_take !free_lane;
      free_warp := drop warps_take !free_warp
    end
  done;
  let reg_images = List.concat !reg_prepends @ reg_existing in
  let outs = Array.to_list (Array.mapi (fun d s -> (Dims.dim d, Util.log2 s)) shape) in
  let ins =
    [
      (Dims.register, List.length reg_images);
      (Dims.lane, Array.length lane_images);
      (Dims.warp, Array.length warp_images);
    ]
    |> List.filter (fun (_, b) -> b > 0)
  in
  let bases =
    [
      (Dims.register, reg_images);
      (Dims.lane, Array.to_list lane_images);
      (Dims.warp, Array.to_list warp_images);
    ]
    |> List.filter (fun (d, _) -> List.mem_assoc d ins)
  in
  Layout.make ~ins ~outs ~bases
