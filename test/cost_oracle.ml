(* An independent price for well-formed ISA programs, the oracle of the
   static-cost tests.  [Gpusim.Isa.price] is the one price rule that
   both [Analysis.Static_cost] and [Gpusim.Isa.run] fold, so comparing
   those two checks nothing about the rule itself; this restatement
   does.  It expands each shared-memory address map to its per-warp,
   per-lane offsets and prices every warp's access with
   [Gpusim.Banks.wavefronts] on explicit [{addr; bytes}] records, a
   point model, where the library prices warp 0's lane columns by rank
   with [Banks.linear_wavefronts] and multiplies by the warp count. *)

module Isa = Gpusim.Isa
module Cost = Gpusim.Cost

let shared_wavefronts machine (p : Isa.program) ~addr ~bytes ~byte_width =
  let total = ref 0 and addr = Isa_fuzz.rows p addr in
  for w = 0 to p.Isa.warps - 1 do
    let accesses =
      List.init p.Isa.lanes (fun l -> { Gpusim.Banks.addr = addr.(w).(l) * byte_width; bytes })
    in
    total := !total + Gpusim.Banks.wavefronts machine accesses
  done;
  !total

let cost machine (p : Isa.program) =
  let c = Cost.zero () and warps = p.Isa.warps in
  List.iter
    (function
      | Isa.Mov _ | Isa.Bin _ -> c.Cost.alu <- c.Cost.alu + warps
      | Isa.Sel _ | Isa.Scatter _ -> c.Cost.alu <- c.Cost.alu + (2 * warps)
      | Isa.Shfl_idx _ ->
          c.Cost.shuffles <- c.Cost.shuffles + warps;
          c.Cost.alu <- c.Cost.alu + warps
      | Isa.St_shared { slots; addr; byte_width } | Isa.Ld_shared { slots; addr; byte_width } ->
          let bytes = List.length slots * byte_width in
          c.Cost.smem_wavefronts <-
            c.Cost.smem_wavefronts + shared_wavefronts machine p ~addr ~bytes ~byte_width;
          c.Cost.smem_insts <- c.Cost.smem_insts + warps
      | Isa.Bar_sync -> c.Cost.barriers <- c.Cost.barriers + 1)
    p.Isa.body;
  c
