open Linear_layout

let name = "forward_propagate"

let description =
  "propagate layouts through shape/compute ops, queue conversion requests, \
   account compute costs"

(* The forward dataflow of Section 4.4: walk the (SSA, topologically
   ordered) program once, assign each non-anchor instruction's layout
   from its sources via the linear transfer functions, and queue a
   {!Pass.pending} entry wherever a source may need converting.  The
   requests snapshot the source layout/kind at walk time because the dot
   transfer (and legacy normalization) re-layout operands in place —
   later passes must see the value as it was when the requirement arose.
   Compute-op costs (elementwise ALU, mma issues, reduction/scan
   shuffle + shared-memory traffic, gather plans) are also accounted
   here, where the walk-time layouts they depend on are available. *)
let run (st : Pass.state) =
  let machine = st.Pass.machine and num_warps = st.Pass.num_warps in
  let prog = st.Pass.prog in
  let layout_of = Pass.layout_of st in
  let kind_of = Pass.kind_of st in
  let set = Pass.set st in
  let request ?(ldmatrix_ok = false) ?(smem_resident = false) ?(foldable = true)
      ?(remat_candidate = false) ~at ~src ~dst ~dst_kind () =
    st.Pass.pending <-
      Pass.Convert
        {
          Pass.at;
          src;
          src_layout = layout_of src;
          src_kind = kind_of src;
          dst;
          dst_kind;
          ldmatrix_ok;
          smem_resident;
          foldable;
          remat_candidate;
        }
      :: st.Pass.pending
  in
  (* In legacy mode, shape operations on non-blocked layouts cannot be
     propagated (e.g. the transpose of an MMA layout is not a legacy
     layout): materialize a conversion to a blocked layout first.
     Unconditional — not foldable by [simplify] — exactly like the
     baseline's forced normalization. *)
  let legacy_normalize i =
    let ins = Program.instr prog i in
    if st.Pass.mode = Pass.Legacy_mode && ins.Program.kind <> Legacy.Support.Blocked
    then begin
      let bl =
        Pass_util.default_blocked machine ~num_warps ~shape:ins.Program.shape
          ~dtype:ins.Program.dtype
      in
      request ~foldable:false ~at:i ~src:i ~dst:bl ~dst_kind:Legacy.Support.Blocked ();
      ins.Program.layout <- Some bl;
      ins.Program.kind <- Legacy.Support.Blocked
    end
  in
  Program.iteri
    (fun i (ins : Program.instr) ->
      let shape = ins.Program.shape in
      match ins.Program.node with
      | Program.Load _ | Program.Iota _ | Program.Full _ ->
          (* Anchors: handled by the [anchor] pass. *)
          ()
      | Program.Store { src } ->
          let anchor =
            Pass_util.default_blocked machine ~num_warps ~shape ~dtype:ins.Program.dtype
          in
          st.Pass.pending <-
            Pass.Store_decision
              {
                Pass.store_at = i;
                store_src = src;
                store_src_layout = layout_of src;
                store_src_kind = kind_of src;
                store_anchor = anchor;
              }
            :: st.Pass.pending
      | Program.Elementwise { srcs; _ } ->
          (* The propagation tie-break: when operands disagree on
             (layout, kind), any of the distinct candidates could carry
             the result and the others be converted.  Greedy keeps the
             first operand (the historic behaviour); a search strategy
             may commit any candidate.  One occurrence of the chosen
             source is skipped when queueing requests, so the greedy
             path issues exactly the requests it always has (including
             foldable duplicates). *)
          let distinct =
            List.fold_left
              (fun acc s ->
                if
                  List.exists
                    (fun s' ->
                      Layout.equal (layout_of s') (layout_of s)
                      && kind_of s' = kind_of s)
                    acc
                then acc
                else s :: acc)
              [] srcs
            |> List.rev
          in
          let chosen =
            match distinct with
            | _ :: _ :: _ ->
                let c =
                  Pass.decide st
                    (Strategy.Elementwise_tie
                       { Strategy.tie_at = i; tie_choices = distinct })
                in
                List.nth distinct c
            | _ -> List.hd srcs
          in
          let l = layout_of chosen and k = kind_of chosen in
          let skipped = ref false in
          List.iter
            (fun s ->
              if s = chosen && not !skipped then skipped := true
              else request ~remat_candidate:true ~at:i ~src:s ~dst:l ~dst_kind:k ())
            srcs;
          set i l k;
          let own_alu =
            max 1
              (Array.fold_left ( * ) 1 shape / (machine.Gpusim.Machine.warp_size * num_warps))
          in
          st.Pass.total.Gpusim.Cost.alu <- st.Pass.total.Gpusim.Cost.alu + own_alu
      | Program.Dot { a; b } ->
          let sa = (Program.instr prog a).Program.shape in
          let sb = (Program.instr prog b).Program.shape in
          let m = sa.(0) and k = sa.(1) and n = sb.(1) in
          let a_dtype = (Program.instr prog a).Program.dtype in
          let b_dtype = (Program.instr prog b).Program.dtype in
          if
            st.Pass.mode = Pass.Legacy_mode
            && not (Legacy.Support.supports_dot ~a:a_dtype ~b:b_dtype ~m ~n ~k)
          then
            st.Pass.unsupported <-
              Printf.sprintf "dot %s x %s on %dx%dx%d has no legacy layout"
                (Tensor_lib.Dtype.name a_dtype) (Tensor_lib.Dtype.name b_dtype) m n k
              :: st.Pass.unsupported;
          let fits, out_l, a_l, b_l =
            Pass_util.dot_layouts machine ~num_warps ~m ~n ~k ~a_dtype ~b_dtype
          in
          let opk = Legacy.Support.Mma_input in
          request ~ldmatrix_ok:true ~at:i ~src:a ~dst:a_l ~dst_kind:opk ();
          request ~ldmatrix_ok:true
            ~smem_resident:(machine.Gpusim.Machine.has_wgmma && fits)
            ~at:i ~src:b ~dst:b_l ~dst_kind:opk ();
          (Program.instr prog a).Program.layout <- Some a_l;
          (Program.instr prog a).Program.kind <- opk;
          (Program.instr prog b).Program.layout <- Some b_l;
          (Program.instr prog b).Program.kind <- opk;
          set i out_l (if fits then Legacy.Support.Mma else Legacy.Support.Blocked);
          st.Pass.total.Gpusim.Cost.mma <-
            st.Pass.total.Gpusim.Cost.mma + max 1 (m * n * k / (16 * 8 * 16) / num_warps)
      | Program.Reduce { src; axis } ->
          st.Pass.saw_reduce <- true;
          legacy_normalize src;
          let parent = layout_of src in
          if
            st.Pass.mode = Pass.Legacy_mode
            && not (Legacy.Support.supports_reduction (kind_of src))
          then
            st.Pass.unsupported <-
              Printf.sprintf "reduction over %s layout unsupported"
                (Legacy.Support.kind_name (kind_of src))
              :: st.Pass.unsupported;
          let res =
            Pass_util.transfer "reduce" [ parent ] ~args:[| axis |] ~shape (fun () ->
                Pass_util.rename_dims_above (Sliced.reduction_result parent ~dim:axis) ~axis
                  ~delta:(-1))
          in
          set i res (Pass_util.sliced_kind (kind_of src));
          (* In-thread accumulation. *)
          let regs_src = 1 lsl Layout.in_bits parent Dims.register in
          let warps = 1 lsl Layout.in_bits parent Dims.warp in
          st.Pass.total.Gpusim.Cost.alu <- st.Pass.total.Gpusim.Cost.alu + regs_src;
          let lane_rounds = Pass_util.axis_bits parent Dims.lane ~axis
          and warp_rounds = Pass_util.axis_bits parent Dims.warp ~axis in
          let regs_res = 1 lsl Layout.in_bits res Dims.register in
          (match st.Pass.mode with
          | Pass.Linear ->
              st.Pass.total.Gpusim.Cost.shuffles <-
                st.Pass.total.Gpusim.Cost.shuffles + (lane_rounds * regs_res * warps);
              if warp_rounds > 0 then begin
                st.Pass.local_stores <- st.Pass.local_stores + 1;
                st.Pass.local_loads <- st.Pass.local_loads + 1;
                (* Deduplicated: only distinct elements cross warps. *)
                st.Pass.total.Gpusim.Cost.smem_insts <-
                  st.Pass.total.Gpusim.Cost.smem_insts + (2 * regs_res * warps);
                st.Pass.total.Gpusim.Cost.smem_wavefronts <-
                  st.Pass.total.Gpusim.Cost.smem_wavefronts + (2 * regs_res * warps);
                st.Pass.total.Gpusim.Cost.barriers <- st.Pass.total.Gpusim.Cost.barriers + 1
              end
          | Pass.Legacy_mode ->
              (* Always through shared memory, without broadcast
                 deduplication: every register element is stored. *)
              st.Pass.local_stores <- st.Pass.local_stores + 1;
              st.Pass.local_loads <- st.Pass.local_loads + 1;
              st.Pass.total.Gpusim.Cost.smem_insts <-
                st.Pass.total.Gpusim.Cost.smem_insts + ((regs_src + regs_res) * warps);
              st.Pass.total.Gpusim.Cost.smem_wavefronts <-
                st.Pass.total.Gpusim.Cost.smem_wavefronts + ((regs_src + regs_res) * warps);
              st.Pass.total.Gpusim.Cost.barriers <- st.Pass.total.Gpusim.Cost.barriers + 1)
      | Program.Expand_dims { src; axis } ->
          legacy_normalize src;
          let src_l = layout_of src in
          let l =
            Pass_util.transfer "expand_dims" [ src_l ] ~args:[| axis |] ~shape (fun () ->
                Layout.mul
                  (Pass_util.rename_dims_above src_l ~axis ~delta:1)
                  (Layout.zeros1d 0 ~in_dim:Dims.register ~out_dim:(Dims.dim axis)))
          in
          set i l (kind_of src)
      | Program.Broadcast { src } ->
          legacy_normalize src;
          let l = layout_of src in
          set i
            (Pass_util.transfer "broadcast" [ l ] ~args:[||] ~shape (fun () ->
                 Pass_util.broadcast_layout l ~shape))
            (kind_of src)
      | Program.Trans { src; perm } ->
          legacy_normalize src;
          let l = layout_of src in
          let trans () =
            let spec =
              Array.to_list perm
              |> List.mapi (fun out_d in_d -> (Dims.dim in_d, Dims.dim out_d))
              |> List.filter (fun (a, b) -> a <> b)
            in
            if spec = [] then l else Layout.exchange_out_names l spec
          in
          set i (Pass_util.transfer "trans" [ l ] ~args:perm ~shape trans) (kind_of src)
      | Program.Reshape { src } ->
          legacy_normalize src;
          let l = layout_of src in
          let reshape () =
            Layout.reshape_outs l
              (Array.to_list (Array.mapi (fun d s -> (Dims.dim d, Util.log2 s)) shape))
          in
          set i (Pass_util.transfer "reshape" [ l ] ~args:[||] ~shape reshape) (kind_of src)
      | Program.Gather { src; index; axis } ->
          let l = layout_of src in
          request ~at:i ~src:index ~dst:l ~dst_kind:(kind_of src) ();
          set i l (kind_of src);
          let plan =
            match st.Pass.mode with
            | Pass.Linear -> Codegen.Gather.plan l ~axis
            | Pass.Legacy_mode -> Codegen.Gather.Shared_fallback
          in
          (match plan with
          | Codegen.Gather.Shared_fallback ->
              st.Pass.local_stores <- st.Pass.local_stores + 1;
              st.Pass.local_loads <- st.Pass.local_loads + 1
          | Codegen.Gather.Warp_shuffle _ -> ());
          Gpusim.Cost.add st.Pass.total (Codegen.Gather.cost machine l ~axis plan)
      | Program.Join { a; b } ->
          legacy_normalize a;
          let la = layout_of a in
          request ~at:i ~src:b ~dst:la ~dst_kind:(kind_of a) ();
          (* The new trailing dimension of size 2 is selected by a fresh
             lowest register bit, so the joined pair sits in consecutive
             registers. *)
          let new_dim = Array.length shape - 1 in
          let joined () =
            Layout.make
              ~ins:
                (List.map
                   (fun (d, bits) ->
                     (d, if d = Dims.register then bits + 1 else bits))
                   (if Layout.has_in_dim la Dims.register then Layout.in_dims la
                    else (Dims.register, 0) :: Layout.in_dims la))
              ~outs:((Dims.dim new_dim, 1) :: Layout.out_dims la)
              ~bases:
                (List.map
                   (fun (d, bits) ->
                     let images = List.init bits (Layout.basis la d) in
                     ( d,
                       if d = Dims.register then [ (Dims.dim new_dim, 1) ] :: images
                       else images ))
                   (if Layout.has_in_dim la Dims.register then Layout.in_dims la
                    else (Dims.register, 0) :: Layout.in_dims la))
          in
          set i (Pass_util.transfer "join" [ la ] ~args:[||] ~shape joined) (kind_of a)
      | Program.Split { src; half = _ } ->
          legacy_normalize src;
          let l = layout_of src in
          let last = Array.length shape in
          let split () =
            Sliced.compress (Layout.remove_out_dim l (Dims.dim last)) ~in_dim:Dims.register
          in
          set i (Pass_util.transfer "split" [ l ] ~args:[||] ~shape split) (kind_of src)
      | Program.Scan { src; axis; reverse } ->
          legacy_normalize src;
          let l = layout_of src in
          (* Scans are layout-preserving: an in-register sequential part,
             a Hillis-Steele warp scan over the lane bits on the axis,
             then partial sums through shared memory across warps.
             Reverse scans relabel indices with the affine flip
             (Section 8) at zero cost in the linear system; legacy
             Triton miscompiled them (the associative_scan reverse=True
             bug cited in Section 5.1). *)
          set i l (kind_of src);
          if st.Pass.mode = Pass.Legacy_mode && reverse then
            st.Pass.unsupported <-
              Printf.sprintf "reverse scan over %s layout miscompiles in legacy Triton"
                (Legacy.Support.kind_name (kind_of src))
              :: st.Pass.unsupported;
          if st.Pass.mode = Pass.Legacy_mode && st.Pass.saw_reduce then
            st.Pass.unsupported <-
              "mixing tl.sum and tl.cumsum in one kernel miscompiles in legacy Triton"
              :: st.Pass.unsupported;
          let regs = 1 lsl Layout.in_bits l Dims.register in
          let warps = 1 lsl Layout.in_bits l Dims.warp in
          let lane_rounds = Pass_util.axis_bits l Dims.lane ~axis
          and warp_rounds = Pass_util.axis_bits l Dims.warp ~axis in
          st.Pass.total.Gpusim.Cost.alu <- st.Pass.total.Gpusim.Cost.alu + (2 * regs);
          st.Pass.total.Gpusim.Cost.shuffles <-
            st.Pass.total.Gpusim.Cost.shuffles + (lane_rounds * regs * warps);
          if warp_rounds > 0 then begin
            st.Pass.local_stores <- st.Pass.local_stores + 1;
            st.Pass.local_loads <- st.Pass.local_loads + 1;
            st.Pass.total.Gpusim.Cost.smem_insts <-
              st.Pass.total.Gpusim.Cost.smem_insts + (2 * warps);
            st.Pass.total.Gpusim.Cost.smem_wavefronts <-
              st.Pass.total.Gpusim.Cost.smem_wavefronts + (2 * warps);
            st.Pass.total.Gpusim.Cost.barriers <- st.Pass.total.Gpusim.Cost.barriers + 1
          end
      | Program.Convert { src } ->
          (* Explicit conversions carry no target here; keep the source
             layout (the engine inserts its own accounting elsewhere). *)
          set i (layout_of src) (kind_of src))
    prog
