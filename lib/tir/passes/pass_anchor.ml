open Linear_layout

let name = "anchor"

let description =
  "assign blocked anchor layouts to loads/iota/full and seed remat chain costs"

(* Anchors are the instructions whose layout is chosen from the memory
   system alone: global loads get the coalesced blocked layout, and
   register-computable values (iota/full — the canonical
   rematerialization targets, computed from the lane/register id with no
   memory traffic) get the same blocked default.  Their access events
   are recorded against the anchor layout — the [lower] pass turns them
   into instruction/transaction counts — and their chain costs seed the
   backward pass's rematerialization table. *)
let run (st : Pass.state) =
  Program.iteri
    (fun i (ins : Program.instr) ->
      let shape = ins.Program.shape and dtype = ins.Program.dtype in
      match ins.Program.node with
      | Program.Load _ ->
          let l = Pass_util.choose_anchor st ~at:i ~shape ~dtype in
          Pass.set st i l Legacy.Support.Blocked;
          let byte_width = Pass_util.byte_width_of dtype in
          st.Pass.accesses <-
            {
              Pass.access_at = i;
              access_kind = Pass.Global_load;
              access_layout = l;
              access_byte_width = byte_width;
            }
            :: st.Pass.accesses;
          let vec = Pass_util.vec_for st l ~byte_width in
          let insts, tx = Pass_util.global_access_counts l ~byte_width ~vec in
          let c = Gpusim.Cost.zero () in
          c.Gpusim.Cost.gmem_insts <- insts;
          c.Gpusim.Cost.gmem_transactions <- tx;
          Hashtbl.replace st.Pass.chain_cost i c
      | Program.Iota _ | Program.Full _ ->
          let l = Pass_util.choose_anchor st ~at:i ~shape ~dtype in
          Pass.set st i l Legacy.Support.Blocked;
          st.Pass.accesses <-
            {
              Pass.access_at = i;
              access_kind = Pass.Register_materialize;
              access_layout = l;
              access_byte_width = Pass_util.byte_width_of dtype;
            }
            :: st.Pass.accesses;
          let regs = 1 lsl Layout.in_bits l Dims.register in
          let c = Gpusim.Cost.zero () in
          c.Gpusim.Cost.alu <- regs;
          Hashtbl.replace st.Pass.chain_cost i c
      | _ -> ())
    st.Pass.prog
