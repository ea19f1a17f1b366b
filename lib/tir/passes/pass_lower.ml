open Linear_layout

let name = "lower"

let description =
  "lower recorded global/register accesses through the coalescing model into \
   instruction and transaction counts"

(* Every global access event recorded by [anchor] and [backward_remat]
   is lowered here: the access is split into [regs / vec] vectorized
   warp instructions, each touching the same number of 32-byte sectors
   (one F2 rank of the layout's lane columns,
   {!Gpusim.Coalesce.warp_sectors}), and register materializations cost
   one ALU op per register element.  Kept separate from the walks that
   planned the accesses so the planning passes stay target-cost free and
   the per-op coalescing work shows up in its own timing bucket. *)
let run (st : Pass.state) =
  List.iter
    (fun (a : Pass.access) ->
      match a.Pass.access_kind with
      | Pass.Register_materialize ->
          st.Pass.total.Gpusim.Cost.alu <-
            st.Pass.total.Gpusim.Cost.alu
            + (1 lsl Layout.in_bits a.Pass.access_layout Dims.register)
      | Pass.Global_load | Pass.Global_store ->
          let byte_width = a.Pass.access_byte_width in
          let vec = Pass_util.vec_for st a.Pass.access_layout ~byte_width in
          let insts, tx =
            Pass_util.global_access_counts a.Pass.access_layout ~byte_width ~vec
          in
          st.Pass.total.Gpusim.Cost.gmem_insts <-
            st.Pass.total.Gpusim.Cost.gmem_insts + insts;
          st.Pass.total.Gpusim.Cost.gmem_transactions <-
            st.Pass.total.Gpusim.Cost.gmem_transactions + tx)
    (List.rev st.Pass.accesses);
  (* A store with no layout means no access was planned for it — the
     backward pass was skipped.  The cost model is then incomplete. *)
  Program.iteri
    (fun i (ins : Program.instr) ->
      match (ins.Program.node, ins.Program.layout) with
      | Program.Store _, None ->
          Pass.warn st ~code:"LL701" ~loc:(Diagnostics.Tir_instr i)
            "store has no layout: no global access lowered (was backward_remat \
             disabled?)"
      | _ -> ())
    st.Pass.prog
