let id = Build.id

let fold_mul = List.fold_left Layout.mul Layout.empty

let reg_packing ~bitwidth =
  if bitwidth > 32 || 32 mod bitwidth <> 0 then
    invalid_arg "Mma: bitwidth must divide 32"
  else Util.log2 (32 / bitwidth)

(* The tiles are constants: each depends only on the register packing
   [log2(32/b)] (0 to 5 over the bitwidths dividing 32) or on [m], so
   each is built once, eagerly, when the module initializes.  Eager
   tables are safe to share across domains; [Lazy] is not.

   Appendix, Proposition 9.2: lhs/output tile
   id_{log2(32/b)}^{Reg,1} x id_2^{Thr,1} x id_3^{Thr,0}
   x id_1^{Reg,0} x id_1^{Reg,1}. *)
let lhs_tiles =
  Array.init 6 (fun k ->
      fold_mul
        [
          id k ~in_dim:Dims.register 1;
          id 2 ~in_dim:Dims.lane 1;
          id 3 ~in_dim:Dims.lane 0;
          id 1 ~in_dim:Dims.register 0;
          id 1 ~in_dim:Dims.register 1;
        ])

(* The transpose of the lhs tile with half the registers per thread:
   id_{log2(32/b)}^{Reg,0} x id_2^{Thr,0} x id_3^{Thr,1} x id_1^{Reg,1}. *)
let rhs_tiles =
  Array.init 6 (fun k ->
      fold_mul
        [
          id k ~in_dim:Dims.register 0;
          id 2 ~in_dim:Dims.lane 0;
          id 3 ~in_dim:Dims.lane 1;
          id 1 ~in_dim:Dims.register 1;
        ])

let wgmma_tiles = Array.map (fun t -> Layout.mul t (id 2 ~in_dim:Dims.warp 0)) lhs_tiles
let lhs_tile ~bitwidth = lhs_tiles.(reg_packing ~bitwidth)
let rhs_tile ~bitwidth = rhs_tiles.(reg_packing ~bitwidth)
let output_tile ~bitwidth = lhs_tile ~bitwidth
let operand_tile ~idx ~bitwidth =
  match idx with
  | 0 -> lhs_tile ~bitwidth
  | 1 -> rhs_tile ~bitwidth
  | _ -> invalid_arg "Mma.operand_tile: idx must be 0 or 1"

let wgmma_output_tile ~bitwidth = wgmma_tiles.(reg_packing ~bitwidth)

let mfma16 =
  fold_mul [ id 2 ~in_dim:Dims.register 0; id 4 ~in_dim:Dims.lane 1; id 2 ~in_dim:Dims.lane 0 ]

let mfma32 =
  fold_mul
    [
      id 2 ~in_dim:Dims.register 0;
      id 5 ~in_dim:Dims.lane 1;
      id 1 ~in_dim:Dims.lane 0;
      id 2 ~in_dim:Dims.register 0;
    ]

let mfma_output_tile ~m =
  match m with
  | 16 -> mfma16
  | 32 -> mfma32
  | _ -> invalid_arg "Mma.mfma_output_tile: m must be 16 or 32"

(* Intel XMX (dpas) accumulator tile: a 16-lane subgroup holds an
   8 x 16 tile, one row per register. *)
let xmx = fold_mul [ id 4 ~in_dim:Dims.lane 1; id 3 ~in_dim:Dims.register 0 ]
let xmx_output_tile () = xmx

let default_order n = Array.init n Fun.id

let distribute tile ?warp_order ~warps ~shape () =
  let n = Array.length shape in
  let warp_order = match warp_order with Some o -> o | None -> default_order n in
  let shape_bits = Array.map Util.log2 shape in
  let with_warps =
    Build.cover ~base:tile
      ~levels:[ (Dims.warp, Array.map Util.log2 warps) ]
      ~shape_bits ~order:warp_order
  in
  (* Cover the remaining tensor with register replication, fastest
     (last) dimension first. *)
  Build.cover ~base:with_warps ~levels:[] ~shape_bits
    ~order:(Blocked.row_major_order n)

let output ?warp_order ~bitwidth ~warps ~shape () =
  distribute (output_tile ~bitwidth) ?warp_order ~warps ~shape ()

let wgmma_output ?warp_order ~bitwidth ~warp_groups ~shape () =
  distribute (wgmma_output_tile ~bitwidth) ?warp_order ~warps:warp_groups ~shape ()

let mfma_output ?warp_order ~m ~warps ~shape () =
  distribute (mfma_output_tile ~m) ?warp_order ~warps ~shape ()

let xmx_output ?warp_order ~warps ~shape () =
  distribute (xmx_output_tile ()) ?warp_order ~warps ~shape ()

let operand ?warp_order ?out_tile ~idx ~bitwidth ~warps ~shape () =
  let n = Array.length warps in
  let warp_order = match warp_order with Some o -> o | None -> default_order n in
  let out_tile = match out_tile with Some t -> t | None -> output_tile ~bitwidth:32 in
  let tile = operand_tile ~idx ~bitwidth in
  let outer = if idx = 0 then 0 else 1 in
  let inner = 1 - outer in
  let shape_bits = Array.map Util.log2 shape in
  (* Warp bits must select the same coordinates of the outer dimension
     as the matching output layout's warp bits do — otherwise a warp's
     fragment would not cover its own output tile.  The output
     allocates warp bits just above its tile, so the operand's warp bit
     [i] along the outer dim maps to coordinate bit
     [out_tile_bits + i].  When that collides with the (wider) operand
     tile, the column is duplicated — benign replication.  Warp bits
     along the dimension the operand lacks broadcast (zero columns), as
     in the appendix's Proposition 9.2. *)
  let out_tile_bits = Layout.out_bits out_tile (Dims.dim outer) in
  let warp_images =
    Array.to_list warp_order
    |> List.concat_map (fun d ->
           List.init (Util.log2 warps.(d)) (fun i ->
               if d <> outer then []
               else
                 let coord_bit = out_tile_bits + i in
                 if coord_bit >= shape_bits.(outer) then []
                 else [ (Dims.dim outer, 1 lsl coord_bit) ]))
  in
  let with_warps =
    if warp_images = [] then tile
    else
      let needed_outer =
        List.fold_left
          (fun acc img ->
            match img with [ (_, c) ] -> max acc (F2.Bitvec.width c) | _ -> acc)
          (Layout.out_bits tile (Dims.dim outer))
          warp_images
      in
      let grow (d, bits) = (d, if d = Dims.dim outer then max bits needed_outer else bits) in
      Layout.make
        ~ins:(Layout.in_dims tile @ [ (Dims.warp, List.length warp_images) ])
        ~outs:(List.map grow (Layout.out_dims tile))
        ~bases:
          (List.map
             (fun (d, bits) -> (d, List.init bits (Layout.basis tile d)))
             (Layout.in_dims tile)
          @ [ (Dims.warp, warp_images) ])
  in
  (* Replicate registers to cover the reduction dimension first, then
     any leftover rows/columns of the outer dimension. *)
  Build.cover ~base:with_warps ~levels:[] ~shape_bits ~order:[| inner; outer |]
