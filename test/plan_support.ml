(* Structural equality of cached plan values, shared by the
   shared-cache, plan-store and server suites.  The plan records carry
   no derived/ephemeral state, so field-wise comparison (layouts via
   [Layout.equal]) is exactly "the cache handed back the same plan a
   fresh planner would produce". *)

open Linear_layout

let shuffle_equal (a : Codegen.Shuffle.t) (b : Codegen.Shuffle.t) =
  Layout.equal a.Codegen.Shuffle.src b.Codegen.Shuffle.src
  && Layout.equal a.Codegen.Shuffle.dst b.Codegen.Shuffle.dst
  && a.Codegen.Shuffle.vec = b.Codegen.Shuffle.vec
  && a.Codegen.Shuffle.common_thr = b.Codegen.Shuffle.common_thr
  && a.Codegen.Shuffle.g = b.Codegen.Shuffle.g
  && a.Codegen.Shuffle.ext = b.Codegen.Shuffle.ext
  && a.Codegen.Shuffle.rounds = b.Codegen.Shuffle.rounds
  && a.Codegen.Shuffle.shuffles_per_round = b.Codegen.Shuffle.shuffles_per_round

let swizzle_equal (a : Codegen.Swizzle_opt.t) (b : Codegen.Swizzle_opt.t) =
  Layout.equal a.Codegen.Swizzle_opt.mem b.Codegen.Swizzle_opt.mem
  && a.Codegen.Swizzle_opt.vec = b.Codegen.Swizzle_opt.vec
  && a.Codegen.Swizzle_opt.seg = b.Codegen.Swizzle_opt.seg
  && a.Codegen.Swizzle_opt.bank = b.Codegen.Swizzle_opt.bank
  && a.Codegen.Swizzle_opt.vec_bits = b.Codegen.Swizzle_opt.vec_bits
  && a.Codegen.Swizzle_opt.store_wavefronts = b.Codegen.Swizzle_opt.store_wavefronts
  && a.Codegen.Swizzle_opt.load_wavefronts = b.Codegen.Swizzle_opt.load_wavefronts

let cost_equal (a : Gpusim.Cost.t) (b : Gpusim.Cost.t) =
  a.Gpusim.Cost.smem_wavefronts = b.Gpusim.Cost.smem_wavefronts
  && a.Gpusim.Cost.smem_insts = b.Gpusim.Cost.smem_insts
  && a.Gpusim.Cost.shuffles = b.Gpusim.Cost.shuffles
  && a.Gpusim.Cost.gmem_transactions = b.Gpusim.Cost.gmem_transactions
  && a.Gpusim.Cost.gmem_insts = b.Gpusim.Cost.gmem_insts
  && a.Gpusim.Cost.ldmatrix = b.Gpusim.Cost.ldmatrix
  && a.Gpusim.Cost.alu = b.Gpusim.Cost.alu
  && a.Gpusim.Cost.mma = b.Gpusim.Cost.mma
  && a.Gpusim.Cost.barriers = b.Gpusim.Cost.barriers

let staging_equal a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Codegen.Operand_staging.t), Some (b : Codegen.Operand_staging.t) ->
      Layout.equal a.Codegen.Operand_staging.mem b.Codegen.Operand_staging.mem
      && a.Codegen.Operand_staging.vec = b.Codegen.Operand_staging.vec
      && a.Codegen.Operand_staging.per_phase = b.Codegen.Operand_staging.per_phase
      && a.Codegen.Operand_staging.max_phase = b.Codegen.Operand_staging.max_phase
      && a.Codegen.Operand_staging.uses_ldmatrix = b.Codegen.Operand_staging.uses_ldmatrix
      && cost_equal a.Codegen.Operand_staging.staging_cost b.Codegen.Operand_staging.staging_cost
  | _ -> false

let mechanism_equal a b =
  match (a, b) with
  | Codegen.Conversion.No_op, Codegen.Conversion.No_op
  | Codegen.Conversion.Register_permute, Codegen.Conversion.Register_permute
  | Codegen.Conversion.Global_roundtrip, Codegen.Conversion.Global_roundtrip ->
      true
  | Codegen.Conversion.Warp_shuffle a, Codegen.Conversion.Warp_shuffle b
  | Codegen.Conversion.Warp_shuffle_compressed a, Codegen.Conversion.Warp_shuffle_compressed b
    ->
      shuffle_equal a b
  | Codegen.Conversion.Shared_memory a, Codegen.Conversion.Shared_memory b -> swizzle_equal a b
  | _ -> false

let plan_equal (a : Codegen.Conversion.plan) (b : Codegen.Conversion.plan) =
  Layout.equal a.Codegen.Conversion.src b.Codegen.Conversion.src
  && Layout.equal a.Codegen.Conversion.dst b.Codegen.Conversion.dst
  && a.Codegen.Conversion.byte_width = b.Codegen.Conversion.byte_width
  && mechanism_equal a.Codegen.Conversion.mechanism b.Codegen.Conversion.mechanism

(* A deterministic pool of CTA-wide blocked pairs (the test_transval
   family): same CTA shape on both sides so every mechanism has a
   warp-level lowering.  On GH200 they plan as no-op or shared memory;
   {!mechanism_pairs} below adds inputs for the other mechanisms. *)
let cta_pairs () =
  let mk ~spt1 ~ord ~wpc =
    let spt = if ord.(0) = 1 then [| 1; spt1 |] else [| spt1; 1 |] in
    let tpw = if ord.(0) = 1 then [| 4; 8 |] else [| 8; 4 |] in
    Blocked.make
      {
        shape = [| 32; 32 |];
        size_per_thread = spt;
        threads_per_warp = tpw;
        warps_per_cta = wpc;
        order = ord;
      }
  in
  let layouts =
    List.concat_map
      (fun spt1 ->
        List.concat_map
          (fun ord ->
            List.map (fun wpc -> mk ~spt1 ~ord ~wpc) [ [| 1; 4 |]; [| 4; 1 |]; [| 2; 2 |] ])
          [ [| 1; 0 |]; [| 0; 1 |] ])
      [ 1; 2; 4 ]
  in
  List.concat_map (fun a -> List.filteri (fun i _ -> i mod 5 = 0) (List.map (fun b -> (a, b)) layouts)) layouts
  |> List.filteri (fun i _ -> i mod 4 = 0)

(* Inputs that reach every conversion mechanism on GH200 at byte width
   4: the CTA-wide pairs above (no-op, shared memory) plus a one-warp
   mma accumulator to blocked exchange (warp shuffle), each as given
   and with one broadcast register bit grown on both sides (the
   compressed shuffle, as in suite_plans); each source against itself
   with its register bases reversed (register permutation); and two
   Cga.distribute grids that split one tensor across CTAs along
   different axes (global round trip). *)
let mechanism_pairs () =
  let grow l = Layout.resize_in l Dims.register (Layout.in_bits l Dims.register + 1) in
  let reverse_registers l =
    Layout.make ~ins:(Layout.in_dims l) ~outs:(Layout.out_dims l)
      ~bases:
        (List.map
           (fun (d, bits) ->
             let images = List.init bits (Layout.basis l d) in
             (d, if d = Dims.register then List.rev images else images))
           (Layout.in_dims l))
  in
  let in_warp =
    ( Mma.output ~bitwidth:32 ~warps:[| 1; 1 |] ~shape:[| 16; 16 |] (),
      Blocked.make
        {
          shape = [| 16; 16 |];
          size_per_thread = [| 1; 8 |];
          threads_per_warp = [| 16; 2 |];
          warps_per_cta = [| 1; 1 |];
          order = [| 1; 0 |];
        } )
  in
  let blocked shape = Blocked.default ~elems_per_thread:4 ~warp_size:32 ~num_warps:4 shape in
  let cross_cta =
    ( Cga.distribute (blocked [| 64; 64 |]) ~blocks:[| 4; 1 |] ~shape:[| 256; 64 |],
      Cga.distribute (blocked [| 256; 16 |]) ~blocks:[| 1; 4 |] ~shape:[| 256; 64 |] )
  in
  let local = in_warp :: cta_pairs () in
  local
  @ List.map (fun (src, dst) -> (grow src, grow dst)) local
  @ List.map (fun (src, _) -> (src, reverse_registers src)) local
  @ [ cross_cta ]

(* [verdict_counts f] runs [f] with metrics on and returns its result
   with the per-plan verdict hits and misses it counted
   ({!Analysis.Static_cost.plan_errors}); shared by the search and
   static-cost suites. *)
let verdict_counts f =
  let count name = Obs.Metrics.counter_value ("analysis.plan_verdicts." ^ name) in
  let hits = count "hits" and misses = count "misses" in
  let r = Obs.with_enabled f in
  (r, count "hits" - hits, count "misses" - misses)
