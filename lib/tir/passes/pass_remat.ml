open Linear_layout

let name = "backward_remat"

let description =
  "backward pass: propagate remat chain costs, decide remat-vs-convert and \
   direct-store-vs-anchor"

(* The backward pass of Section 4.4.  First complete the chain-cost
   table the [anchor] pass seeded: an elementwise value is cheap to
   recompute iff every source is, and the chain costs are
   layout-independent, so one in-order walk suffices.  Then resolve the
   pending work-list in place:

   - a remat-candidate conversion whose source has a cheap chain
     (cheaper than the conversion estimate) becomes a {!Pass.Remat} —
     the chain cost is paid instead of the conversion;
   - a store decision keeps the producer's layout when storing through
     it is no more expensive than converting to the coalesced anchor
     first, otherwise it becomes a conversion to the anchor.  Either
     way the store's layout is fixed here and its global-access event
     recorded for [lower]. *)
let run (st : Pass.state) =
  let machine = st.Pass.machine and num_warps = st.Pass.num_warps in
  let prog = st.Pass.prog in
  Program.iteri
    (fun i (ins : Program.instr) ->
      match ins.Program.node with
      | Program.Elementwise { srcs; _ } -> (
          let own_alu =
            max 1
              (Array.fold_left ( * ) 1 ins.Program.shape
              / (machine.Gpusim.Machine.warp_size * num_warps))
          in
          match
            List.fold_left
              (fun acc s ->
                match (acc, Hashtbl.find_opt st.Pass.chain_cost s) with
                | Some acc, Some c ->
                    let sum = Gpusim.Cost.zero () in
                    Gpusim.Cost.add sum acc;
                    Gpusim.Cost.add sum c;
                    Some sum
                | _ -> None)
              (Some (Gpusim.Cost.zero ()))
              srcs
          with
          | Some chain ->
              chain.Gpusim.Cost.alu <- chain.Gpusim.Cost.alu + own_alu;
              Hashtbl.replace st.Pass.chain_cost i chain
          | None -> ())
      | _ -> ())
    prog;
  st.Pass.pending <-
    List.filter_map
      (function
        | Pass.Convert r when r.Pass.remat_candidate -> (
            let byte_width =
              Pass_util.byte_width_of (Program.instr prog r.Pass.at).Program.dtype
            in
            let estimate =
              Pass_util.convert_estimate st ~src:r.Pass.src_layout ~dst:r.Pass.dst
                ~byte_width
            in
            match Hashtbl.find_opt st.Pass.chain_cost r.Pass.src with
            | Some chain ->
                (* Both options are genuinely available: reify the
                   choice.  Greedy rematerializes exactly when the
                   chain estimate beats the conversion estimate. *)
                let c =
                  Pass.decide st
                    (Strategy.Remat_or_convert
                       {
                         Strategy.remat_site_at = r.Pass.at;
                         remat_site_src = r.Pass.src;
                         chain_estimate = Gpusim.Cost.estimate machine chain;
                         convert_estimate = estimate;
                       })
                in
                if c = 1 then begin
                  st.Pass.remats <- st.Pass.remats + 1;
                  Gpusim.Cost.add st.Pass.total chain;
                  Some (Pass.Remat { remat_at = r.Pass.at; remat_src = r.Pass.src })
                end
                else Some (Pass.Convert r)
            | None -> Some (Pass.Convert r))
        | Pass.Store_decision sc ->
            let at = sc.Pass.store_at in
            let byte_width =
              Pass_util.byte_width_of (Program.instr prog at).Program.dtype
            in
            let store_estimate l =
              let vec = Pass_util.vec_for st l ~byte_width in
              let insts, tx = Pass_util.global_access_counts l ~byte_width ~vec in
              (float_of_int insts *. machine.Gpusim.Machine.cost_smem_inst)
              +. (float_of_int tx *. machine.Gpusim.Machine.cost_gmem_transaction)
            in
            let convert_estimate () =
              match st.Pass.mode with
              | Pass.Linear ->
                  Pass_util.convert_estimate st ~src:sc.Pass.store_src_layout
                    ~dst:sc.Pass.store_anchor ~byte_width
              | Pass.Legacy_mode ->
                  if
                    sc.Pass.store_src_kind = Legacy.Support.Blocked
                    && Layout.equal sc.Pass.store_src_layout sc.Pass.store_anchor
                  then 0.
                  else
                    Pass_util.convert_estimate st ~src:sc.Pass.store_src_layout
                      ~dst:sc.Pass.store_anchor ~byte_width
            in
            let kind_ok =
              match st.Pass.mode with
              | Pass.Linear -> true
              | Pass.Legacy_mode -> sc.Pass.store_src_kind = Legacy.Support.Blocked
            in
            let direct_ok =
              (* Only a real choice when the producer's layout may carry
                 the store at all (legacy cannot store through
                 non-blocked kinds); greedy stores directly unless the
                 anchor route is strictly cheaper. *)
              kind_ok
              &&
              let c =
                Pass.decide st
                  (Strategy.Store_direct_or_anchor
                     {
                       Strategy.store_site_at = at;
                       direct_estimate = store_estimate sc.Pass.store_src_layout;
                       via_anchor_estimate =
                         convert_estimate () +. store_estimate sc.Pass.store_anchor;
                     })
              in
              c = 0
            in
            let l = if direct_ok then sc.Pass.store_src_layout else sc.Pass.store_anchor in
            Pass.set st at l Legacy.Support.Blocked;
            st.Pass.accesses <-
              {
                Pass.access_at = at;
                access_kind = Pass.Global_store;
                access_layout = l;
                access_byte_width = byte_width;
              }
              :: st.Pass.accesses;
            if direct_ok then None
            else
              Some
                (Pass.Convert
                   {
                     Pass.at;
                     src = sc.Pass.store_src;
                     src_layout = sc.Pass.store_src_layout;
                     src_kind = sc.Pass.store_src_kind;
                     dst = sc.Pass.store_anchor;
                     dst_kind = Legacy.Support.Blocked;
                     ldmatrix_ok = false;
                     smem_resident = false;
                     foldable = false;
                     remat_candidate = false;
                   })
        | p -> Some p)
      st.Pass.pending
