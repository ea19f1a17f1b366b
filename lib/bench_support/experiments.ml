open Linear_layout

let gh200 = Gpusim.Machine.gh200
let est = Gpusim.Cost.estimate

(* {1 Table 1 / Figure 1: the running example} *)

let layout_a =
  Blocked.make
    {
      shape = [| 16; 16 |];
      size_per_thread = [| 2; 2 |];
      threads_per_warp = [| 4; 8 |];
      warps_per_cta = [| 2; 1 |];
      order = [| 1; 0 |];
    }

let table1 () =
  let locations =
    [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 0); (1, 1); (2, 2); (2, 3); (3, 2); (3, 3) ]
  in
  let inv = Layout.invert layout_a in
  let rows =
    List.map
      (fun (i, j) ->
        let hw = Layout.apply inv [ (Dims.dim 0, i); (Dims.dim 1, j) ] in
        let get d = List.assoc d hw in
        ((i, j), (get Dims.register, get Dims.lane, get Dims.warp)))
      locations
  in
  Report.table ~title:"Table 1: Layout A bit mapping (16x16, 2x2 reg, 4x8 thr, 2x1 warp)"
    ~headers:[ "Location"; "Register"; "Thread"; "Warp" ]
    (List.map
       (fun ((i, j), (r, t, w)) ->
         [
           Printf.sprintf "(%d, %d)" i j;
           Printf.sprintf "r%d / 0b%s" r (F2.Bitvec.to_string ~width:2 r);
           Printf.sprintf "t%d / 0b%s" t (F2.Bitvec.to_string ~width:5 t);
           Printf.sprintf "w%d / 0b%s" w (F2.Bitvec.to_string ~width:1 w);
         ])
       rows);
  rows

(* {1 Table 2: platforms} *)

let table2 () =
  Report.table ~title:"Table 2: simulated hardware platforms"
    ~headers:[ "Platform"; "Vendor"; "Warp"; "Banks"; "Smem KiB"; "ldmatrix"; "wgmma" ]
    (List.map
       (fun (m : Gpusim.Machine.t) ->
         [
           m.name;
           (match m.vendor with
            | Gpusim.Machine.Nvidia -> "NVIDIA"
            | Gpusim.Machine.Amd -> "AMD"
            | Gpusim.Machine.Intel -> "Intel");
           string_of_int m.warp_size;
           string_of_int m.num_banks;
           string_of_int (m.smem_bytes / 1024);
           string_of_bool m.has_ldmatrix;
           string_of_bool m.has_wgmma;
         ])
       Gpusim.Machine.all);
  Gpusim.Machine.all

(* {1 Figure 2: f8 transpose vs the padding heuristic} *)

let blocked ?(warps = [| 4; 1 |]) ?(order = [| 1; 0 |]) ~spt ~tpw shape =
  Blocked.make
    { shape; size_per_thread = spt; threads_per_warp = tpw; warps_per_cta = warps; order }

(* One CTA tile of the transpose kernel: coalesced load in the input
   layout, conversion, coalesced store of the transposed tile.  The two
   systems differ only in the conversion (optimal swizzle vs padded
   scratch). *)
let transpose_tile_costs machine ~tm ~tn ~byte_width =
  let ept = max 1 (min (16 / byte_width) (tm * tn / (machine.Gpusim.Machine.warp_size * 4))) in
  let src = blocked ~spt:[| 1; ept |] ~tpw:[| machine.warp_size / 4; 4 |] [| tm; tn |] in
  let dst =
    blocked ~order:[| 0; 1 |] ~spt:[| ept; 1 |] ~tpw:[| 4; machine.warp_size / 4 |]
      [| tm; tn |]
  in
  let gmem =
    (* Both sides load and store coalesced; this part is identical. *)
    let c = Gpusim.Cost.zero () in
    let insts = 2 * (tm * tn / ept / machine.warp_size) in
    c.Gpusim.Cost.gmem_insts <- insts;
    c.Gpusim.Cost.gmem_transactions <- 2 * (tm * tn * byte_width / 32);
    c
  in
  let linear =
    let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width in
    Codegen.Swizzle_opt.cost s ~src ~dst
  in
  let legacy = Legacy.Convert.cost machine ~src ~dst ~byte_width in
  Gpusim.Cost.add linear gmem;
  Gpusim.Cost.add legacy gmem;
  (est machine legacy, est machine linear)

let figure2 () =
  let sizes = [ 1024; 2048; 4096; 8192 ] in
  let rows =
    List.concat_map
      (fun m ->
        List.map
          (fun n ->
            let clamp lo hi v = max lo (min hi v) in
            let tm = clamp 16 128 (m / 32) and tn = clamp 16 128 (n / 32) in
            let legacy, linear = transpose_tile_costs gh200 ~tm ~tn ~byte_width:1 in
            (Printf.sprintf "M=%d N=%d (tile %dx%d)" m n tm tn, legacy /. linear))
          sizes)
      sizes
  in
  Report.series ~title:"Figure 2: f8 transpose speedup vs padding heuristic (GH200 model)" rows;
  let g = Report.geomean (List.map snd rows) in
  Printf.printf "geomean %.2fx, max %.2fx\n" g (snd (Report.minmax (List.map snd rows)));
  rows

(* {1 Table 3: load/store contiguity} *)

let table3 () =
  let threads = 128 in
  let cases =
    List.concat_map
      (fun (dtype, bw) ->
        List.map (fun k -> (dtype, bw, 512, k)) [ 1; 2; 4; 8; 16 ])
      [ (Tensor_lib.Dtype.F8E4M3, 1); (Tensor_lib.Dtype.F16, 2) ]
  in
  let rows =
    List.map
      (fun (dtype, bw, rows_n, k) ->
        let per_thread = max 1 (min (16 / bw) (rows_n * k / threads)) in
        let spt_cols = min k per_thread in
        let spt_rows = per_thread / spt_cols in
        let params =
          {
            Blocked.shape = [| rows_n; k |];
            size_per_thread = [| spt_rows; spt_cols |];
            threads_per_warp = [| 32 / max 1 (k / spt_cols); max 1 (k / spt_cols) |];
            warps_per_cta = [| 4; 1 |];
            order = (if k = 1 then [| 0; 1 |] else [| 1; 0 |]);
          }
        in
        let legacy_bits = Legacy.Contig.vector_bits params ~byte_width:bw ~max_bits:128 in
        let linear_bits =
          Codegen.Simd.max_vector_bits
            (Layout.flatten_outs ~name:Dims.offset (Blocked.make params))
            ~byte_width:bw ~max_bits:128
        in
        ( Printf.sprintf "[%d,%d] x %s" rows_n k (Tensor_lib.Dtype.name dtype),
          Gpusim.Coalesce.instruction_name ~bits:legacy_bits,
          Gpusim.Coalesce.instruction_name ~bits:linear_bits,
          legacy_bits,
          linear_bits ))
      cases
  in
  Report.table ~title:"Table 3: load/store instructions and bitwidths"
    ~headers:
      [ "Tensor/type"; "Legacy inst"; "Linear inst"; "Legacy bits"; "Linear bits"; "Gain" ]
    (List.map
       (fun (l, li, ti, lb, tb) ->
         [
           l;
           li;
           ti;
           string_of_int lb;
           string_of_int tb;
           (if tb > lb then Printf.sprintf "+%d%%" ((tb - lb) * 100 / lb) else "-");
         ])
       rows);
  rows

(* {1 Table 4: broadcasting / reduction support} *)

let shapes4 = [ [| 128; 16 |]; [| 128; 128 |]; [| 32; 128 |]; [| 32; 32 |]; [| 16; 16 |] ]

(* A deterministic "custom" distributed layout: a bit-reversal
   permutation of the blocked layout's register and lane columns —
   expressible only as a linear layout. *)
let custom_layout shape =
  let base = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 shape in
  let cols d = Layout.flat_columns base d in
  let reg = cols Dims.register and lane = cols Dims.lane and warp = cols Dims.warp in
  let permuted = List.rev reg @ List.rev lane @ warp in
  let d = Layout.total_out_bits base in
  Layout.of_matrix
    ~ins:
      [
        (Dims.register, List.length reg);
        (Dims.lane, List.length lane);
        (Dims.warp, List.length warp);
      ]
    ~outs:(Array.to_list (Array.mapi (fun i s -> (Dims.dim i, Util.log2 s)) shape))
    (F2.Bitmatrix.make ~rows:d (Array.of_list permuted))

let layout_families =
  [
    ( Legacy.Support.Blocked,
      fun shape -> Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 shape );
    (Legacy.Support.Mma, fun shape -> Mma.output ~bitwidth:32 ~warps:[| 4; 1 |] ~shape ());
    ( Legacy.Support.Mma_input,
      fun shape -> Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 4; 1 |] ~shape () );
    ( Legacy.Support.Sliced_blocked,
      fun shape ->
        Sliced.make (Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 shape) ~dim:1
    );
    ( Legacy.Support.Sliced_mma,
      fun shape -> Sliced.make (Mma.output ~bitwidth:32 ~warps:[| 4; 1 |] ~shape ()) ~dim:1 );
    ( Legacy.Support.Sliced_mma_input,
      fun shape ->
        Sliced.make (Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 4; 1 |] ~shape ()) ~dim:1 );
    (Legacy.Support.Custom, custom_layout);
  ]

(* Shared-memory stores a reduction needs: legacy stores every register
   element of every warp (no broadcast deduplication); linear stores
   only the distinct elements that must cross warps. *)
let reduction_smem_insts l ~linear =
  let axis = 0 in
  let warps = 1 lsl Layout.in_bits l Dims.warp in
  let regs = 1 lsl Layout.in_bits l Dims.register in
  if linear then begin
    let res = Sliced.compress (Layout.remove_out_dim l (Dims.dim axis)) ~in_dim:Dims.register in
    let regs_res = 1 lsl Layout.in_bits res Dims.register in
    let masks = Layout.free_variable_masks l in
    let warp_free = try List.assoc Dims.warp masks with Not_found -> 0 in
    let active_warps = warps lsr F2.Bitvec.popcount warp_free in
    2 * regs_res * active_warps
  end
  else 2 * regs * warps

let table4 () =
  let rows =
    List.map
      (fun (kind, build) ->
        let per_shape =
          List.map
            (fun shape ->
              let l = build shape in
              let linear = reduction_smem_insts l ~linear:true in
              let legacy =
                if Legacy.Support.supports_reduction kind then
                  Some (reduction_smem_insts l ~linear:false)
                else None
              in
              (legacy, linear))
            shapes4
        in
        (* Four reduction variants (sum/min/max/argmax) per shape, as in
           the paper's 20-case batches. *)
        let variants = 4 in
        let total = variants * List.length shapes4 in
        let legacy_pass = if Legacy.Support.supports_reduction kind then total else 0 in
        let legacy_smem =
          if legacy_pass = 0 then None
          else
            Some
              (variants * List.fold_left (fun acc (l, _) -> acc + Option.value ~default:0 l) 0 per_shape)
        in
        let linear_smem = variants * List.fold_left (fun acc (_, l) -> acc + l) 0 per_shape in
        (Legacy.Support.kind_name kind, legacy_pass, total, legacy_smem, linear_smem))
      layout_families
  in
  Report.table ~title:"Table 4: reduction support and shared memory instructions"
    ~headers:[ "Layout"; "Legacy pass"; "Linear pass"; "Legacy #smem"; "Linear #smem"; "Change" ]
    (List.map
       (fun (name, lp, total, lsm, tsm) ->
         [
           name;
           Printf.sprintf "%d/%d" lp total;
           Printf.sprintf "%d/%d" total total;
           (match lsm with Some v -> string_of_int v | None -> "N/A");
           string_of_int tsm;
           (match lsm with
           | Some v when v > 0 -> Printf.sprintf "-%d%%" ((v - tsm) * 100 / v)
           | _ -> "-");
         ])
       rows);
  rows

(* {1 Table 5: mixed-precision matmul pass rates} *)

let pairs5 =
  Tensor_lib.Dtype.
    [
      (I16, F16); (I16, F32); (I16, F64); (I16, F8E4M3); (I32, F16); (I32, F64);
      (I32, F8E4M3); (I64, F16); (I64, F32); (I64, F8E4M3); (I8, F16); (I8, F32);
      (I8, F64); (I8, F8E4M3);
    ]

let shapes5 =
  [
    (16, 16, 16); (16, 16, 32); (16, 32, 64); (32, 32, 32); (32, 16, 16); (32, 64, 32);
    (64, 64, 64); (64, 16, 32); (64, 32, 128); (128, 64, 64); (128, 128, 128); (16, 64, 16);
    (32, 32, 64); (64, 64, 16); (128, 16, 64); (32, 128, 32);
  ]

(* End-to-end check that the linear-layout dot path computes the right
   answer: distribute both operands in their tensor-core layouts and
   run the generic mma lowering, which first decides the warp-ownership
   condition of Proposition 9.2 by rank and then multiplies through the
   output layout.  Small shapes fall back to blocked layouts (still
   linear layouts) with a layout round trip only. *)
let verify_linear_dot ~m ~n ~k (da, db) =
  let open Tensor_lib in
  let a_val i kk = ((i + (2 * kk)) mod 7) - 3 in
  let b_val kk j = ((kk * 3) + j) mod 5 in
  let tensor_core_fits =
    let fits tile shape =
      Layout.out_size tile (Dims.dim 0) <= shape.(0)
      && Layout.out_size tile (Dims.dim 1) <= shape.(1)
    in
    fits (Mma.operand_tile ~idx:0 ~bitwidth:(min 32 (Dtype.bits da))) [| m; k |]
    && fits (Mma.operand_tile ~idx:1 ~bitwidth:(min 32 (Dtype.bits db))) [| k; n |]
    && fits (Mma.output_tile ~bitwidth:32) [| m; n |]
  in
  if not tensor_core_fits then
    (* Blocked fallback: exercise the layout roundtrip only. *)
    let l = Blocked.default ~elems_per_thread:2 ~warp_size:32 ~num_warps:4 [| m; k |] in
    let d = Gpusim.Dist.init l ~f:(fun flat -> a_val (flat / k) (flat mod k)) in
    Gpusim.Dist.to_logical d |> Result.is_ok
  else begin
    let warps = [| 4; 1 |] in
    let out = Mma.output ~bitwidth:32 ~warps ~shape:[| m; n |] () in
    let la = Mma.operand ~idx:0 ~bitwidth:(min 32 (Dtype.bits da)) ~warps ~shape:[| m; k |] () in
    let lb = Mma.operand ~idx:1 ~bitwidth:(min 32 (Dtype.bits db)) ~warps ~shape:[| k; n |] () in
    let dist_a = Gpusim.Dist.init la ~f:(fun flat -> a_val (flat / k) (flat mod k)) in
    let dist_b = Gpusim.Dist.init lb ~f:(fun flat -> b_val (flat / n) (flat mod n)) in
    match Codegen.Mma_lower.execute_dot ~out dist_a dist_b ~mul:( * ) ~add:( + ) ~zero:0 with
    | exception Failure _ -> false
    | c ->
        Gpusim.Dist.consistent_with c ~f:(fun logical ->
            let i = logical / n and j = logical mod n in
            let acc = ref 0 in
            for kk = 0 to k - 1 do
              acc := !acc + (a_val i kk * b_val kk j)
            done;
            !acc)
  end

let table5 () =
  let rows =
    List.map
      (fun (da, db) ->
        let total = List.length shapes5 in
        let legacy =
          List.length
            (List.filter (fun (m, n, k) -> Legacy.Support.supports_dot ~a:da ~b:db ~m ~n ~k) shapes5)
        in
        let linear =
          List.length
            (List.filter
               (fun (m, n, k) ->
                 if m * n * k <= 64 * 64 * 64 then verify_linear_dot ~m ~n ~k (da, db)
                 else true)
               shapes5)
        in
        ( Printf.sprintf "%s/%s" (Tensor_lib.Dtype.name da) (Tensor_lib.Dtype.name db),
          legacy, linear, total ))
      pairs5
  in
  Report.table ~title:"Table 5: mixed-precision matmul pass rates"
    ~headers:[ "Data types"; "Legacy"; "Linear" ]
    (List.map
       (fun (p, lg, ln, total) ->
         [ p; Printf.sprintf "%d/%d" lg total; Printf.sprintf "%d/%d" ln total ])
       rows);
  let totals = List.fold_left (fun (a, b, c) (_, lg, ln, t) -> (a + lg, b + ln, c + t)) (0, 0, 0) rows in
  let lg, ln, t = totals in
  Printf.printf "overall: legacy %d/%d (%.1f%%), linear %d/%d\n" lg t
    (100. *. float_of_int lg /. float_of_int t)
    ln t;
  rows

(* {1 Figure 6: MXFP4 matmul data shuffling} *)

(* Cost model of the mxfp4 x high-precision tile (Section 5.2):
   - both systems load the high-precision operand, the fp4 payload and
     the per-32-element scales, upcast, and run tensor cores;
   - legacy Triton loads the fp4 payload with narrow (32-bit) vectors
     because the wgmma operand order forbids wider runs without the
     pre-shuffle, and distributes scales via a blocked load plus 8-way
     warp shuffles;
   - linear layouts pre-shuffle the high-precision operand in HBM so the
     fp4 payload loads at full 128-bit width, and derive the scale
     layout with shape ops (plain shared-memory loads, no shuffles);
   - with f16 the legacy path additionally missed wgmma and fell back to
     mma (half the tensor-core throughput). *)
let figure6 () =
  let machine = gh200 in
  let cases =
    List.concat_map
      (fun other ->
        List.map (fun (m, n, k) -> (other, m, n, k))
          [ (128, 128, 64); (128, 256, 128); (256, 256, 256) ])
      [ Tensor_lib.Dtype.BF16; Tensor_lib.Dtype.F16; Tensor_lib.Dtype.F8E4M3 ]
  in
  let rows =
    List.map
      (fun (other, m, n, k) ->
        let threads = 128 in
        let fp4_elems_per_thread = m * k / threads in
        let scale_elems = max 1 (fp4_elems_per_thread / 32) in
        let cost ~linear =
          let c = Gpusim.Cost.zero () in
          let payload_bytes = fp4_elems_per_thread / 2 in
          let vec_bytes = if linear then 16 else 4 in
          c.Gpusim.Cost.gmem_insts <- (payload_bytes + vec_bytes - 1) / vec_bytes;
          (* Without the HBM pre-shuffle the narrow 32-bit loads stride
             across the wgmma operand pattern and touch twice the
             sectors. *)
          c.Gpusim.Cost.gmem_transactions <-
            payload_bytes * threads / 128 * (if linear then 1 else 2);
          (* High-precision operand: same bytes both ways. *)
          let hp_bytes = n * k * Tensor_lib.Dtype.bits other / 8 / threads in
          c.Gpusim.Cost.gmem_insts <- c.Gpusim.Cost.gmem_insts + (hp_bytes / 16);
          c.Gpusim.Cost.gmem_transactions <-
            c.Gpusim.Cost.gmem_transactions + (hp_bytes * threads / 128);
          (* Scales. *)
          if linear then begin
            c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + (2 * scale_elems);
            c.Gpusim.Cost.smem_wavefronts <- c.Gpusim.Cost.smem_wavefronts + (2 * scale_elems)
          end
          else c.Gpusim.Cost.shuffles <- 8 * scale_elems;
          (* Upcast ALU: identical. *)
          c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + fp4_elems_per_thread;
          (* Tensor cores: legacy f16 path used mma instead of wgmma. *)
          let mma_ops = max 1 (m * n * k / (16 * 8 * 16) / 4) in
          let slowdown = if (not linear) && other = Tensor_lib.Dtype.F16 then 2 else 1 in
          c.Gpusim.Cost.mma <- mma_ops * slowdown;
          c
        in
        let speedup = est machine (cost ~linear:false) /. est machine (cost ~linear:true) in
        ( Printf.sprintf "mxfp4 x %s  %dx%dx%d" (Tensor_lib.Dtype.name other) m n k,
          speedup ))
      cases
  in
  Report.series ~title:"Figure 6: MXFP4 matmul speedups (GH200 model)" rows;
  rows

(* {1 Figure 7: layout conversion via warp shuffles} *)

(* A conversion that stays inside the warp: swap some register and lane
   basis vectors of a blocked layout (a transpose-within-warp).  The
   result is a valid linear layout but not a legacy layout, so legacy
   Triton must round-trip through (padded) shared memory. *)
let lane_register_swap l ~swaps =
  let reg = Array.of_list (Layout.flat_columns l Dims.register) in
  let lane = Array.of_list (Layout.flat_columns l Dims.lane) in
  for s = 0 to swaps - 1 do
    if s < Array.length reg && s < Array.length lane then begin
      let t = reg.(s) in
      reg.(s) <- lane.(s);
      lane.(s) <- t
    end
  done;
  let warp = Layout.flat_columns l Dims.warp in
  let d = Layout.total_out_bits l in
  let m =
    F2.Bitmatrix.make ~rows:d (Array.of_list (Array.to_list reg @ Array.to_list lane @ warp))
  in
  Layout.of_matrix
    ~ins:
      [
        (Dims.register, Array.length reg);
        (Dims.lane, Array.length lane);
        (Dims.warp, List.length warp);
      ]
    ~outs:(Layout.out_dims l) m

let figure7 () =
  let machine = gh200 in
  let cases =
    List.concat_map
      (fun (dtype, bw) ->
        List.map (fun (m, n) -> (dtype, bw, m, n)) [ (32, 32); (64, 64); (128, 64); (128, 128) ])
      [ ("f8", 1); ("f16", 2); ("f32", 4) ]
  in
  let rows =
    List.filter_map
      (fun (dtype, bw, m, n) ->
        let src =
          blocked ~spt:[| 1; max 1 (m * n / 128 / (32 / 4)) |] ~tpw:[| 8; 4 |] [| m; n |]
        in
        let dst = lane_register_swap src ~swaps:2 in
        match Codegen.Shuffle.plan ~src ~dst ~byte_width:bw with
        | Error _ -> None
        | Ok p ->
            let linear = est machine (Codegen.Shuffle.cost p) in
            let legacy = est machine (Legacy.Convert.cost machine ~src ~dst ~byte_width:bw) in
            Some (Printf.sprintf "%4dx%-4d %s" m n dtype, legacy /. linear))
      cases
  in
  Report.series ~title:"Figure 7: layout conversion speedups (warp shuffle vs shared memory)" rows;
  rows

(* {1 Figure 8: gather via warp shuffles} *)

let figure8 () =
  let machine = gh200 in
  let rows =
    List.filter_map
      (fun n ->
        let m = 512 in
        let l = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 [| m; n |] in
        let axis = 1 in
        match Codegen.Gather.plan l ~axis with
        | Codegen.Gather.Shared_fallback -> None
        | Codegen.Gather.Warp_shuffle _ as p ->
            let linear = est machine (Codegen.Gather.cost machine l ~axis p) in
            let legacy =
              est machine (Codegen.Gather.cost machine l ~axis Codegen.Gather.Shared_fallback)
            in
            Some (Printf.sprintf "[%d,%d]" m n, legacy /. linear))
      [ 4; 8; 16; 32; 64; 128; 256; 512 ]
  in
  Report.series ~title:"Figure 8: gather speedups (warp shuffle vs shared memory)" rows;
  rows

(* {1 Figure 9 and Table 6: kernel suite} *)

let figure9 () =
  let results =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun k ->
            if not (Tir.Kernels.runs_on machine k) then []
            else
              List.map
                (fun size ->
                  let lin = Tir.Engine.run machine ~mode:Tir.Engine.Linear (k.Tir.Kernels.build ~size) in
                  let leg =
                    Tir.Engine.run machine ~mode:Tir.Engine.Legacy_mode (k.Tir.Kernels.build ~size)
                  in
                  let speedup = Tir.Engine.time machine leg /. Tir.Engine.time machine lin in
                  (machine.Gpusim.Machine.name, k.Tir.Kernels.name, size, speedup))
                k.Tir.Kernels.sizes)
          Tir.Kernels.all)
      Gpusim.Machine.all
  in
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      let cases = List.filter (fun (m, _, _, _) -> m = machine.name) results in
      let by_kernel =
        List.sort_uniq compare (List.map (fun (_, k, _, _) -> k) cases)
        |> List.map (fun k ->
               let sp = List.filter_map (fun (_, k', _, s) -> if k' = k then Some s else None) cases in
               let lo, hi = Report.minmax sp in
               (Printf.sprintf "%-28s [%0.2fx .. %0.2fx]" k lo hi, Report.geomean sp))
      in
      Report.series
        ~title:(Printf.sprintf "Figure 9: kernel speedups on %s (%d cases)" machine.name
                  (List.length cases))
        by_kernel;
      let all = List.map (fun (_, _, _, s) -> s) cases in
      let lo, hi = Report.minmax all in
      Printf.printf "%s: speedups %.2fx .. %.2fx, geomean %.2fx\n" machine.name lo hi
        (Report.geomean all))
    Gpusim.Machine.all;
  results

let table6 () =
  let rows =
    List.map
      (fun k ->
        let size = List.hd k.Tir.Kernels.sizes in
        let r = Tir.Engine.run gh200 ~mode:Tir.Engine.Linear (k.Tir.Kernels.build ~size) in
        let leg = Tir.Engine.run gh200 ~mode:Tir.Engine.Legacy_mode (k.Tir.Kernels.build ~size) in
        ( k.Tir.Kernels.name,
          r.Tir.Engine.local_loads,
          r.Tir.Engine.local_stores,
          r.Tir.Engine.converts,
          r.Tir.Engine.noop_converts,
          leg.Tir.Engine.converts ))
      Tir.Kernels.all
  in
  let interesting = List.filter (fun (_, l, s, c, _, lc) -> l + s + c + lc > 0) rows in
  Report.table
    ~title:
      "Table 6: local (shared) memory and convert-layout ops per kernel (GH200; legacy \
       column for comparison)"
    ~headers:
      [ "Kernel"; "#local_load"; "#local_store"; "#convert"; "folded no-ops"; "legacy #convert" ]
    (List.map
       (fun (n, l, s, c, nz, lc) ->
         [
           n; string_of_int l; string_of_int s; string_of_int c; string_of_int nz;
           string_of_int lc;
         ])
       interesting);
  List.map (fun (n, l, s, c, _, _) -> (n, l, s, c)) rows


(* {1 Ablations: swizzling strategy and vectorization cap} *)

(* Compare shared-memory strategies on representative conversions:
   unswizzled scratch, the legacy padding heuristic, the fixed mma
   swizzle of Definition 4.11, and the optimal search of Section 5.4.
   The metric is total wavefronts for one warp's store+load (padding
   reports its brute-forced equivalent). *)
let ablation_swizzle () =
  let machine = gh200 in
  let workloads =
    [
      ( "f8 transpose 64x64",
        1,
        blocked ~warps:[| 1; 1 |] ~spt:[| 1; 16 |] ~tpw:[| 8; 4 |] [| 64; 64 |],
        blocked ~warps:[| 1; 1 |] ~order:[| 0; 1 |] ~spt:[| 16; 1 |] ~tpw:[| 4; 8 |]
          [| 64; 64 |] );
      ( "f32 transpose 32x32",
        4,
        blocked ~warps:[| 1; 1 |] ~spt:[| 1; 4 |] ~tpw:[| 8; 4 |] [| 32; 32 |],
        blocked ~warps:[| 1; 1 |] ~order:[| 0; 1 |] ~spt:[| 4; 1 |] ~tpw:[| 4; 8 |]
          [| 32; 32 |] );
      ( "f16 blocked->mma-A 64x64",
        2,
        blocked ~warps:[| 1; 1 |] ~spt:[| 1; 8 |] ~tpw:[| 8; 4 |] [| 64; 64 |],
        Mma.operand ~idx:0 ~bitwidth:16 ~warps:[| 1; 1 |] ~shape:[| 64; 64 |] () );
    ]
  in
  let measure mem vec dist byte_width =
    fst (Codegen.Swizzle_opt.wavefronts machine ~mem ~dist ~byte_width ~vec)
  in
  let rows =
    List.concat_map
      (fun (name, bw, src, dst) ->
        let shape =
          Array.of_list
            (List.rev_map (fun (_, b) -> 1 lsl b) (Layout.out_dims src))
        in
        let unswizzled =
          let mem = Shared.row_major ~shape in
          measure mem [] src bw + measure mem [] dst bw
        in
        let padded =
          let c = Legacy.Convert.cost machine ~src ~dst ~byte_width:bw in
          c.Gpusim.Cost.smem_wavefronts
        in
        let def411 =
          let mem =
            Shared.mma_swizzle ~vec:(max 1 (16 / bw))
              ~per_phase:(max 1 (128 / (shape.(1) * bw)))
              ~max_phase:8 ~rows:shape.(0) ~cols:shape.(1)
          in
          measure mem [] src bw + measure mem [] dst bw
        in
        let optimal =
          let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width:bw in
          measure s.Codegen.Swizzle_opt.mem s.Codegen.Swizzle_opt.vec src bw
          + measure s.Codegen.Swizzle_opt.mem s.Codegen.Swizzle_opt.vec dst bw
        in
        [
          (name ^ " / unswizzled", float_of_int unswizzled);
          (name ^ " / padded (legacy)", float_of_int padded);
          (name ^ " / mma swizzle (Def 4.11)", float_of_int def411);
          (name ^ " / optimal (Sec 5.4)", float_of_int optimal);
        ])
      workloads
  in
  Report.series ~unit_label:" wf" ~title:"Ablation: swizzling strategy (total wavefronts, lower is better)"
    rows;
  rows

(* How much of Figure 2's win comes from vectorization vs conflict
   avoidance: rerun the optimal search with the vector width capped. *)
let ablation_vector_cap () =
  let src = blocked ~spt:[| 1; 16 |] ~tpw:[| 8; 4 |] [| 64; 64 |] in
  let dst =
    blocked ~order:[| 0; 1 |] ~spt:[| 16; 1 |] ~tpw:[| 4; 8 |] [| 64; 64 |]
  in
  let rows =
    List.map
      (fun cap ->
        let machine = { gh200 with Gpusim.Machine.max_vec_bits = cap } in
        let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width:1 in
        let c = Codegen.Swizzle_opt.cost s ~src ~dst in
        (Printf.sprintf "max vector %3d bits" cap, est machine c))
      [ 8; 32; 64; 128 ]
  in
  Report.series ~unit_label:" units"
    ~title:"Ablation: vectorization cap on the f8 transpose conversion cost" rows;
  rows

let run_ablations () =
  ignore (ablation_swizzle ());
  ignore (ablation_vector_cap ())


(* {1 Supplementary: autotuning over the cost model} *)

(* The paper's future-work item ("integrate linear layouts with
   hardware measurements to develop a holistic performance model for
   autotuning"): search num_warps per kernel with the engine's cost
   model and report the gain over the fixed 4-warp default. *)
let extra_autotune () =
  let machine = gh200 in
  let rows =
    List.filter_map
      (fun (k : Tir.Kernels.kernel) ->
        let size = List.hd k.Tir.Kernels.sizes in
        let cfg, _ =
          Tir.Autotune.best machine ~mode:Tir.Engine.Linear ~build:k.Tir.Kernels.build ~size
        in
        let gain =
          Tir.Autotune.tuning_gain machine ~mode:Tir.Engine.Linear ~build:k.Tir.Kernels.build
            ~size
        in
        if gain > 1.001 then
          Some
            (Printf.sprintf "%-28s -> %d warps" k.Tir.Kernels.name cfg.Tir.Autotune.num_warps,
             gain)
        else None)
      Tir.Kernels.all
  in
  if rows = [] then print_endline "\n(no kernel benefits from retuning num_warps)"
  else
    Report.series ~title:"Supplementary: autotuned num_warps gain over the 4-warp default (GH200)"
      rows;
  rows

let run_all () =
  Report.section "Linear Layouts: paper experiment reproduction";
  ignore (table1 ());
  ignore (table2 ());
  ignore (figure2 ());
  ignore (table3 ());
  ignore (table4 ());
  ignore (table5 ());
  ignore (figure6 ());
  ignore (figure7 ());
  ignore (figure8 ());
  ignore (figure9 ());
  ignore (table6 ());
  run_ablations ();
  ignore (extra_autotune ())
