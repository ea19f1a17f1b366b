open Linear_layout

type t = {
  mem : Layout.t;
  vec : int;
  per_phase : int;
  max_phase : int;
  uses_ldmatrix : bool;
  staging_cost : Gpusim.Cost.t;
}

let shape_2d l =
  match Dims.sort (Layout.out_dims l) with
  | [ (d1, cols_bits); (d0, rows_bits) ]
    when d0 = Dims.dim 0 && d1 = Dims.dim 1 && rows_bits > 0 && cols_bits > 0 ->
      Some (1 lsl rows_bits, 1 lsl cols_bits)
  | _ -> None

(* The vectorization basis used to count one side's accesses: the
   contiguous low register run, clipped to [vec] elements. *)
let side_vec dist ~vec =
  let consec = Layout.num_consecutive dist ~in_dim:Dims.register in
  let v = min consec vec in
  List.init (Util.log2 v) (fun j -> 1 lsl j)

(* Evaluate one candidate memory layout: store side counted from
   [src], load side either ldmatrix (when the tile divides) or
   counted vectorized loads.  [None] when the candidate cannot host
   [src]'s vectorized stores. *)
let try_candidate machine ~src ~dst ~byte_width ~vec ~per_phase ~max_phase mem =
  try
    let mem_to_reg =
      Layout.Memo.compose
        (Layout.Memo.invert (Layout.flatten_outs mem))
        (Layout.flatten_outs dst)
    in
    let uses_ldmatrix =
      machine.Gpusim.Machine.has_ldmatrix && Simd.can_use_ldmatrix mem_to_reg ~byte_width
    in
    let warps l = 1 lsl Layout.in_bits l Dims.warp in
    let store_wf, store_insts =
      (* Fall back to scalar stores when the candidate memory layout
         breaks the source's contiguous runs. *)
      try
        Swizzle_opt.wavefronts machine ~mem ~dist:src ~byte_width
          ~vec:(side_vec src ~vec)
      with Invalid_argument _ ->
        Swizzle_opt.wavefronts machine ~mem ~dist:src ~byte_width ~vec:[]
    in
    let c = Gpusim.Cost.zero () in
    c.Gpusim.Cost.smem_insts <- store_insts * warps src;
    c.Gpusim.Cost.smem_wavefronts <- store_wf * warps src;
    c.Gpusim.Cost.barriers <- 1;
    (if uses_ldmatrix then begin
       (* Each ldmatrix instruction moves 16 bytes per lane,
          conflict-free by construction of the swizzle. *)
       let regs = 1 lsl Layout.in_bits dst Dims.register in
       let insts = max 1 (regs * byte_width / 16) * warps dst in
       c.Gpusim.Cost.ldmatrix <- insts;
       c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + insts
     end
     else
       let load_wf, load_insts =
         try
           Swizzle_opt.wavefronts machine ~mem ~dist:dst ~byte_width
             ~vec:(side_vec dst ~vec)
         with Invalid_argument _ ->
           Swizzle_opt.wavefronts machine ~mem ~dist:dst ~byte_width ~vec:[]
       in
       c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + (load_insts * warps dst);
       c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + (load_wf * warps dst));
    c.Gpusim.Cost.alu <- 2 * c.Gpusim.Cost.smem_insts;
    Some { mem; vec; per_phase; max_phase; uses_ldmatrix; staging_cost = c }
  with Invalid_argument _ | Layout.Error _ -> None

let plan_exn machine ~src ~dst ~byte_width =
  match shape_2d dst with
  | None -> None
  | Some (rows, cols) ->
      let bank_row_bytes =
        machine.Gpusim.Machine.num_banks * machine.Gpusim.Machine.bank_bytes
      in
      let vec = max 1 (min cols (16 / byte_width)) in
      if vec < 2 then None
      else begin
        let per_phase = max 1 (bank_row_bytes / (cols * byte_width)) in
        let max_phase =
          max 1 (min (bank_row_bytes / (vec * byte_width) / per_phase) (rows / per_phase))
        in
        (* Candidate swizzles: row-major (lhs operands) and transposed
           (rhs operands, whose lanes walk the leading dimension — the
           ldmatrix.trans arrangement). *)
        let row_major_mem = Shared.mma_swizzle ~vec ~per_phase ~max_phase ~rows ~cols in
        let vec_t = max 1 (min rows (16 / byte_width)) in
        let per_phase_t = max 1 (bank_row_bytes / (rows * byte_width)) in
        let max_phase_t =
          max 1
            (min (bank_row_bytes / (vec_t * byte_width) / per_phase_t) (cols / per_phase_t))
        in
        let transposed_mem =
          Layout.exchange_out_names
            (Shared.mma_swizzle ~vec:vec_t ~per_phase:per_phase_t ~max_phase:max_phase_t
               ~rows:cols ~cols:rows)
            [ (Dims.dim 0, Dims.dim 1); (Dims.dim 1, Dims.dim 0) ]
        in
        let candidates =
          List.filter_map Fun.id
            [
              try_candidate machine ~src ~dst ~byte_width ~vec ~per_phase ~max_phase
                row_major_mem;
              try_candidate machine ~src ~dst ~byte_width ~vec:vec_t ~per_phase:per_phase_t
                ~max_phase:max_phase_t transposed_mem;
            ]
        in
        let score s = Gpusim.Cost.estimate machine s.staging_cost in
        match List.sort (fun a b -> compare (score a) (score b)) candidates with
        | best :: _ ->
            Obs.Metrics.incr "codegen.staging.planned";
            if best.uses_ldmatrix then Obs.Metrics.incr "codegen.staging.ldmatrix";
            Obs.Metrics.observe "codegen.staging.vec" best.vec;
            Some best
        | [] -> None
      end

let plan machine ~src ~dst ~byte_width =
  try plan_exn machine ~src ~dst ~byte_width with Invalid_argument _ -> None
