open Linear_layout

let name = "insert_conversions"

let description =
  "classify and cost the surviving conversion requests (no-op / permute / \
   shuffle / swizzled smem)"

(* Materialize each surviving request with the Section 5 algorithms:
   plan the conversion (through the {!Codegen.Plan_cache}), classify its
   mechanism, and accumulate its cost and static-op statistics.
   [ldmatrix_ok] marks conversions feeding tensor-core operands, where
   NVIDIA machines can use ldmatrix on the load side; [smem_resident]
   marks wgmma operands read directly from shared memory, where only the
   store side of the staging is paid.  In legacy mode every conversion
   is a padded shared-memory round trip. *)
let convert (st : Pass.state) (r : Pass.request) =
  let machine = st.Pass.machine in
  let s = Program.instr st.Pass.prog r.Pass.src in
  let src_layout = r.Pass.src_layout in
  let dst = r.Pass.dst in
  let byte_width = Pass_util.byte_width_of s.Program.dtype in
  match st.Pass.mode with
  | Pass.Linear ->
      let plan, c = Codegen.Plan_cache.priced machine ~src:src_layout ~dst ~byte_width in
      (match plan.Codegen.Conversion.mechanism with
      | Codegen.Conversion.No_op -> st.Pass.noops <- st.Pass.noops + 1
      | Codegen.Conversion.Register_permute | Codegen.Conversion.Warp_shuffle _
      | Codegen.Conversion.Warp_shuffle_compressed _ ->
          st.Pass.converts <- st.Pass.converts + 1
      | Codegen.Conversion.Global_roundtrip -> st.Pass.converts <- st.Pass.converts + 1
      | Codegen.Conversion.Shared_memory _ ->
          st.Pass.converts <- st.Pass.converts + 1;
          st.Pass.local_stores <- st.Pass.local_stores + 1;
          st.Pass.local_loads <- st.Pass.local_loads + 1);
      (* Tensor-core operands prefer the dedicated mma swizzle, which
         admits ldmatrix on NVIDIA hardware (Section 5.3). *)
      let c =
        match plan.Codegen.Conversion.mechanism with
        | Codegen.Conversion.Shared_memory sw when r.Pass.smem_resident ->
            (* wgmma reads this operand directly from shared memory: only
               the store side of the staging is paid (Section 6.2's
               template_attention observation). *)
            let c' = Gpusim.Cost.zero () in
            Codegen.Swizzle_opt.add_side c'
              ~insts:(Codegen.Swizzle_opt.accesses sw src_layout)
              ~wavefronts:sw.Codegen.Swizzle_opt.store_wavefronts;
            c'.Gpusim.Cost.barriers <- 1;
            c'
        | Codegen.Conversion.Shared_memory _ when r.Pass.ldmatrix_ok -> (
            match Codegen.Plan_cache.staging machine ~src:src_layout ~dst ~byte_width with
            | Some staging
              when Gpusim.Cost.estimate machine
                     staging.Codegen.Operand_staging.staging_cost
                   < Gpusim.Cost.estimate machine c ->
                staging.Codegen.Operand_staging.staging_cost
            | _ -> c)
        | _ -> c
      in
      Gpusim.Cost.add st.Pass.total c;
      if plan.Codegen.Conversion.mechanism <> Codegen.Conversion.No_op then
        st.Pass.convs <-
          {
            Pass.at = r.Pass.at;
            mechanism = Codegen.Conversion.mechanism_name plan.Codegen.Conversion.mechanism;
            conv_cost = c;
            plan = Some plan;
          }
          :: st.Pass.convs
  | Pass.Legacy_mode ->
      if r.Pass.src_kind = r.Pass.dst_kind && Layout.equal src_layout dst then
        st.Pass.noops <- st.Pass.noops + 1
      else begin
        let c =
          if r.Pass.smem_resident then
            Legacy.Convert.store_only_cost machine ~src:src_layout ~dst ~byte_width
          else Legacy.Convert.cost machine ~src:src_layout ~dst ~byte_width
        in
        st.Pass.converts <- st.Pass.converts + 1;
        st.Pass.local_stores <- st.Pass.local_stores + 1;
        st.Pass.local_loads <- st.Pass.local_loads + 1;
        Gpusim.Cost.add st.Pass.total c;
        st.Pass.convs <-
          {
            Pass.at = r.Pass.at;
            mechanism = "shared memory (padded)";
            conv_cost = c;
            plan = None;
          }
          :: st.Pass.convs
      end

let run (st : Pass.state) =
  List.iter
    (function
      | Pass.Convert r -> convert st r
      | Pass.Store_decision _ | Pass.Remat _ ->
          (* Store decisions are resolved by [backward_remat]; remats
             are already paid for. *)
          ())
    (List.rev st.Pass.pending)
