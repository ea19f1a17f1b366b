open Linear_layout

type slot_map = { src_regs : int; dst_base : int; dst_regs : int; total_slots : int }

let scatter_bits sel positions =
  List.fold_left
    (fun (acc, i) pos -> ((if sel land (1 lsl i) <> 0 then acc lor (1 lsl pos) else acc), i + 1))
    (0, 0) positions
  |> fst

(* Emit the stores or loads of one side of a shared-memory round trip:
   one vectorized instruction per non-vectorized register combination.
   [mem_inv o flat] is linear, so the address of (warp, lane, register)
   is the XOR of the images of its parts: the instructions share one
   address map, whose columns are the images of the lane and warp bits,
   and differ in its base, the image of their register group — the
   span of the group basis images. *)
let shared_side ~mem_inv ~layout ~slot_base ~vec ~byte_width ~is_store =
  let rb = Layout.in_bits layout Dims.register in
  let tb = Layout.in_bits layout Dims.lane + Layout.in_bits layout Dims.warp in
  let reg_cols = Array.of_list (Layout.flat_columns layout Dims.register) in
  let vec_pos =
    List.map
      (fun v ->
        match Array.to_list reg_cols |> List.mapi (fun i c -> (i, c))
              |> List.find_opt (fun (_, c) -> c = v)
        with
        | Some (i, _) -> i
        | None -> failwith "Lower: vectorization column missing from register columns")
      vec
  in
  let other_idx =
    List.filter (fun k -> not (List.mem k vec_pos)) (List.init rb Fun.id)
  in
  (* Register [group g, within c] is [groups.(g) lor within.(c)]: the
     two index sets are disjoint. *)
  let units = List.map (fun k -> 1 lsl k) in
  let within = F2.Subspace.span_elements (units vec_pos)
  and groups = F2.Subspace.span_elements (units other_idx) in
  let offset_of =
    let to_logical = Layout.apply_flat layout and to_offset = Layout.apply_flat mem_inv in
    fun hw -> to_offset (to_logical hw)
  in
  let cols =
    F2.Bitmatrix.make ~rows:(Layout.total_out_bits mem_inv)
      (Array.init tb (fun j -> offset_of (1 lsl (rb + j))))
  in
  let group_img = F2.Subspace.span_elements (List.map offset_of (units other_idx)) in
  List.init (Array.length groups) (fun g ->
      let slots = List.init (Array.length within) (fun c -> slot_base + (groups.(g) lor within.(c))) in
      let addr = { Gpusim.Isa.base = group_img.(g); cols } in
      if is_store then Gpusim.Isa.St_shared { slots; addr; byte_width }
      else Gpusim.Isa.Ld_shared { slots; addr; byte_width })

(* Emit the Sel/Shfl/Scatter rounds of a warp-shuffle plan, with the
   source value in slots [src_base..] of [src]'s register order and the
   destination written to [dst_base..].  Both layouts have the same warp
   columns W (§5.4), so a warp column moves an element's source and
   destination points to the same register and lane of another warp:
   every warp's round is a translate of warp 0's.  The rounds range over
   span(R') x payload element, where R' completes V u I u G u W to a
   basis, and each round builds one row per table kind that every warp
   shares.  Round ([rep], payload [pv]) moves the elements
   [rep lxor vig.(i)] for the [i] congruent to [pv] modulo [2^v], and
   their warp translates; the inverse layouts are linear, so each
   element's source and destination hardware points are the XOR of
   [rep]'s image and [vig.(i)]'s, and the images of the span are the
   span of the basis images.  A round in which
   two elements claim one lane's Sel, Shfl or Scatter cell is not a warp
   shuffle: it raises [Failure]. *)
let shuffle_instrs (p : Shuffle.t) ~src ~dst ~src_base ~dst_base ~stage_send ~stage_recv ~warps
    ~lanes =
  let rb_s = Layout.in_bits src Dims.register in
  let rb_d = Layout.in_bits dst Dims.register in
  let lb = Layout.in_bits src Dims.lane in
  let to_src = Layout.apply_flat (Layout.invert src)
  and to_dst = Layout.apply_flat (Layout.invert dst) in
  let v = List.length p.Shuffle.vec in
  let vig_basis = p.Shuffle.vec @ p.Shuffle.common_thr @ p.Shuffle.g in
  let vig_src = F2.Subspace.span_elements (List.map to_src vig_basis)
  and vig_dst = F2.Subspace.span_elements (List.map to_dst vig_basis) in
  let warp_cols = List.filter (fun c -> c <> 0) (Layout.flat_columns src Dims.warp) in
  let reps =
    F2.Subspace.span_elements
      (F2.Subspace.complete_basis ~dim:(Layout.total_out_bits src) (vig_basis @ warp_cols))
  in
  let body = ref [] in
  Array.iter
    (fun rep ->
      let rep_src = to_src rep and rep_dst = to_dst rep in
      for pv = 0 to (1 lsl v) - 1 do
        let sel = Array.make lanes (-1) and lane_tbl = Array.make lanes 0 in
        let keep = Array.make lanes false and scat = Array.make lanes (-1) in
        let i = ref pv in
        while !i < Array.length vig_src do
          let hs = rep_src lxor vig_src.(!i) and hd = rep_dst lxor vig_dst.(!i) in
          if hs lsr (rb_s + lb) <> hd lsr (rb_d + lb) then
            failwith "Lower: shuffle plan crosses warps";
          let l_s = (hs lsr rb_s) land ((1 lsl lb) - 1)
          and l_d = (hd lsr rb_d) land ((1 lsl lb) - 1) in
          if sel.(l_s) >= 0 || keep.(l_d) then
            failwith "Lower: a lane sends or receives two payloads in one shuffle round";
          sel.(l_s) <- src_base + (hs land ((1 lsl rb_s) - 1));
          lane_tbl.(l_d) <- l_s;
          keep.(l_d) <- true;
          scat.(l_d) <- dst_base + (hd land ((1 lsl rb_d) - 1));
          i := !i + (1 lsl v)
        done;
        let every_warp row = Array.make warps row in
        body :=
          Gpusim.Isa.Scatter { src = stage_recv; dst_slot = every_warp scat }
          :: Gpusim.Isa.Shfl_idx
               {
                 dst = stage_recv;
                 src = stage_send;
                 src_lane = every_warp lane_tbl;
                 keep = every_warp keep;
               }
          :: Gpusim.Isa.Sel { dst = stage_send; src_slot = every_warp sel }
          :: !body
      done)
    reps;
  List.rev !body

(* Slot index arithmetic for register compression: [kept] lists the
   non-free register bit positions in increasing order. *)
let kept_bits layout =
  let mask =
    try List.assoc Dims.register (Layout.free_variable_masks layout) with Not_found -> 0
  in
  List.filter
    (fun k -> not (F2.Bitvec.bit mask k))
    (List.init (Layout.in_bits layout Dims.register) Fun.id)

let embed_slot kept j = scatter_bits j kept 
let extract_slot kept j =
  fst
    (List.fold_left
       (fun (acc, i) k -> ((if j land (1 lsl k) <> 0 then acc lor (1 lsl i) else acc), i + 1))
       (0, 0) kept)

let same_cta src dst =
  Layout.in_size src Dims.lane = Layout.in_size dst Dims.lane
  && Layout.in_size src Dims.warp = Layout.in_size dst Dims.warp

let lowerable (plan : Conversion.plan) =
  (match plan.Conversion.mechanism with Conversion.Global_roundtrip -> false | _ -> true)
  && same_cta plan.Conversion.src plan.Conversion.dst

let conversion _machine (plan : Conversion.plan) =
  let src = plan.Conversion.src and dst = plan.Conversion.dst in
  let src_regs = Layout.in_size src Dims.register in
  let dst_regs = Layout.in_size dst Dims.register in
  let lanes = Layout.in_size src Dims.lane in
  let warps = Layout.in_size src Dims.warp in
  if not (same_cta src dst) then failwith "Lower.conversion: source and destination CTAs differ";
  let map =
    { src_regs; dst_base = src_regs; dst_regs; total_slots = src_regs + dst_regs + 2 }
  in
  let stage_send = src_regs + dst_regs and stage_recv = src_regs + dst_regs + 1 in
  let smem_elems = 1 lsl Layout.total_out_bits src in
  let body =
    match plan.Conversion.mechanism with
    | Conversion.No_op ->
        List.init src_regs (fun r -> Gpusim.Isa.Mov { dst = map.dst_base + r; src = r })
    | Conversion.Register_permute ->
        (* Map register slots: slot [j] of the destination holds the
           element whose register-part image is the XOR of the basis
           columns selected by [j]'s bits; find the source slot with the
           same image (lane and warp contributions agree by
           classification). *)
        let slot_images layout regs =
          let cols = Array.of_list (Layout.flat_columns layout Dims.register) in
          Array.init regs (fun slot ->
              let acc = ref 0 in
              Array.iteri (fun k c -> if slot land (1 lsl k) <> 0 then acc := !acc lxor c) cols;
              !acc)
        in
        let src_img = slot_images src src_regs and dst_img = slot_images dst dst_regs in
        let find_src image =
          let rec go i =
            if i >= src_regs then None else if src_img.(i) = image then Some i else go (i + 1)
          in
          go 0
        in
        List.init dst_regs (fun j ->
            match find_src dst_img.(j) with
            | Some i -> Gpusim.Isa.Mov { dst = map.dst_base + j; src = i }
            | None -> (
                (* A broadcast destination slot: duplicate the
                   representative already materialized below it. *)
                match
                  List.find_opt (fun j' -> dst_img.(j') = dst_img.(j)) (List.init j Fun.id)
                with
                | Some j' -> Gpusim.Isa.Mov { dst = map.dst_base + j; src = map.dst_base + j' }
                | None -> failwith "Lower: register permutation has no source for a slot"))
    | Conversion.Warp_shuffle p ->
        shuffle_instrs p ~src ~dst ~src_base:0 ~dst_base:map.dst_base ~stage_send ~stage_recv
          ~warps ~lanes
    | Conversion.Warp_shuffle_compressed inner ->
        (* Compress the duplicated source registers into a compact
           staging block, run the shuffle there, then re-broadcast into
           the destination's register file. *)
        let src_c = inner.Shuffle.src and dst_c = inner.Shuffle.dst in
        let sc = Layout.in_size src_c Dims.register in
        let dc = Layout.in_size dst_c Dims.register in
        let base_sc = src_regs + dst_regs + 2 and base_dc = src_regs + dst_regs + 2 + sc in
        let stage_send' = base_dc + dc and stage_recv' = base_dc + dc + 1 in
        let kept_s = kept_bits src and kept_d = kept_bits dst in
        let compress =
          List.init sc (fun j -> Gpusim.Isa.Mov { dst = base_sc + j; src = embed_slot kept_s j })
        in
        let body =
          shuffle_instrs inner ~src:src_c ~dst:dst_c ~src_base:base_sc ~dst_base:base_dc
            ~stage_send:stage_send' ~stage_recv:stage_recv' ~warps ~lanes
        in
        let expand =
          List.init dst_regs (fun j ->
              Gpusim.Isa.Mov
                { dst = map.dst_base + j; src = base_dc + extract_slot kept_d j })
        in
        compress @ body @ expand
    | Conversion.Global_roundtrip ->
        failwith
          "Lower: cross-CTA conversions spill through global memory; the warp-level ISA does \
           not model the grid"
    | Conversion.Shared_memory sw ->
        let mem_inv = Layout.invert sw.Swizzle_opt.mem in
        shared_side ~mem_inv ~layout:src ~slot_base:0 ~vec:sw.Swizzle_opt.vec
          ~byte_width:plan.Conversion.byte_width ~is_store:true
        @ [ Gpusim.Isa.Bar_sync ]
        @ shared_side ~mem_inv ~layout:dst ~slot_base:map.dst_base
            ~vec:sw.Swizzle_opt.vec ~byte_width:plan.Conversion.byte_width ~is_store:false
  in
  let extra =
    match plan.Conversion.mechanism with
    | Conversion.Warp_shuffle_compressed inner ->
        Layout.in_size inner.Shuffle.src Dims.register
        + Layout.in_size inner.Shuffle.dst Dims.register + 2
    | _ -> 0
  in
  ({ Gpusim.Isa.warps; lanes; smem_elems; body }, { map with total_slots = map.total_slots + extra })

(* Slots are range-checked once, as the interpreter checks them: an
   out-of-range slot must raise, not reach a neighbouring lane's
   registers. *)
let check_slots (st : Gpusim.Isa.state) ~threads ~first ~count =
  if threads > 0 && count > 0 && (first < 0 || first + count > st.Gpusim.Isa.slots) then
    invalid_arg "index out of bounds"

let fill_src (program : Gpusim.Isa.program) map (st : Gpusim.Isa.state) f =
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let slots = st.Gpusim.Isa.slots in
  check_slots st ~threads ~first:0 ~count:map.src_regs;
  (* Source hardware point [r | t * src_regs] sits in slot [r] of thread
     [t = w * lanes + l]. *)
  for t = 0 to threads - 1 do
    for r = 0 to map.src_regs - 1 do
      st.Gpusim.Isa.regs.((t * slots) + r) <- f (r lor (t * map.src_regs))
    done
  done

let read_dst (program : Gpusim.Isa.program) map (st : Gpusim.Isa.state) =
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let slots = st.Gpusim.Isa.slots and regs = st.Gpusim.Isa.regs in
  check_slots st ~threads ~first:map.dst_base ~count:map.dst_regs;
  fun h -> regs.(((h / map.dst_regs) * slots) + map.dst_base + (h mod map.dst_regs))

let load_state program map (d : Gpusim.Dist.t) =
  let st = Gpusim.Isa.make_state program ~slots:map.total_slots in
  fill_src program map st (Gpusim.Dist.get d);
  st

let store_dist (program : Gpusim.Isa.program) map ~dst st =
  let threads = program.Gpusim.Isa.warps * program.Gpusim.Isa.lanes in
  let data = Array.init (map.dst_regs * threads) (read_dst program map st) in
  { Gpusim.Dist.layout = dst; data }

let run machine plan d =
  let program, map = conversion machine plan in
  let st = load_state program map d in
  let cost = Gpusim.Isa.run machine program st in
  (store_dist program map ~dst:plan.Conversion.dst st, cost)

let gather machine ~src ~index ~axis =
  ignore machine;
  let l = src.Gpusim.Dist.layout in
  match Gather.plan l ~axis with
  | Gather.Shared_fallback -> Error "gather leaves the warp: shared-memory fallback"
  | Gather.Warp_shuffle _ ->
      let rb = Layout.in_bits l Dims.register in
      let lb = Layout.in_bits l Dims.lane in
      let regs = 1 lsl rb in
      let lanes = 1 lsl lb in
      let warps = 1 lsl Layout.in_bits l Dims.warp in
      let to_logical = Layout.apply_flat l in
      let out_dims = Layout.out_dims l in
      let axis_size = Layout.out_size l (Dims.dim axis) in
      let t_idx =
        match Gpusim.Dist.to_logical index with
        | Ok t -> t
        | Error e -> failwith ("Lower.gather: " ^ e)
      in
      (* Per warp, an owner table: logical element -> (register, lane). *)
      let owners = Array.init warps (fun _ -> Hashtbl.create 256) in
      for hw = 0 to (regs * lanes * warps) - 1 do
        let w = hw lsr (rb + lb) in
        let logical = to_logical hw in
        if not (Hashtbl.mem owners.(w) logical) then
          Hashtbl.add owners.(w) logical (hw land (regs - 1), (hw lsr rb) land (lanes - 1))
      done;
      let map = { src_regs = regs; dst_base = regs; dst_regs = regs; total_slots = (2 * regs) + 2 } in
      let stage_send = 2 * regs and stage_recv = (2 * regs) + 1 in
      let body = ref [] in
      (* For each destination register slot, serve all lanes' requests in
         rounds: each source lane publishes one register per round. *)
      for r_d = 0 to regs - 1 do
        (* request.(w).(lane) = Some (src_slot, src_lane) until served *)
        let pending =
          Array.init warps (fun w ->
              Array.init lanes (fun lane ->
                  let hw = r_d lor (lane lsl rb) lor (w lsl (rb + lb)) in
                  let logical = to_logical hw in
                  let coords = Layout.unflatten_value out_dims logical in
                  let idx = t_idx.(logical) land (axis_size - 1) in
                  let coords' =
                    List.map
                      (fun (d, c) -> (d, if d = Dims.dim axis then idx else c))
                      coords
                  in
                  let wanted = Layout.flatten_value out_dims coords' in
                  match Hashtbl.find_opt owners.(w) wanted with
                  | Some (r_s, l_s) -> Some (r_s, l_s)
                  | None -> failwith "Lower.gather: source element not in warp"))
        in
        let remaining () =
          Array.exists (fun row -> Array.exists Option.is_some row) pending
        in
        while remaining () do
          let sel = Array.make_matrix warps lanes (-1) in
          let lane_tbl = Array.make_matrix warps lanes 0 in
          let keep = Array.make_matrix warps lanes false in
          let scat = Array.make_matrix warps lanes (-1) in
          for w = 0 to warps - 1 do
            (* Each source lane serves at most one request this round. *)
            let serving = Array.make lanes None in
            for lane = 0 to lanes - 1 do
              match pending.(w).(lane) with
              | Some (r_s, l_s) when serving.(l_s) = None || serving.(l_s) = Some r_s ->
                  serving.(l_s) <- Some r_s;
                  sel.(w).(l_s) <- r_s;
                  lane_tbl.(w).(lane) <- l_s;
                  keep.(w).(lane) <- true;
                  scat.(w).(lane) <- map.dst_base + r_d;
                  pending.(w).(lane) <- None
              | _ -> ()
            done
          done;
          body :=
            Gpusim.Isa.Scatter { src = stage_recv; dst_slot = scat }
            :: Gpusim.Isa.Shfl_idx
                 { dst = stage_recv; src = stage_send; src_lane = lane_tbl; keep }
            :: Gpusim.Isa.Sel { dst = stage_send; src_slot = sel }
            :: !body
        done
      done;
      Ok
        ( {
            Gpusim.Isa.warps;
            lanes;
            smem_elems = 1;
            body = List.rev !body;
          },
          map )

let reduce ?(op = `Add) machine ~src ~axis =
  ignore machine;
  let l = src.Gpusim.Dist.layout in
  let rb = Layout.in_bits l Dims.register in
  let lb = Layout.in_bits l Dims.lane in
  let wb = Layout.in_bits l Dims.warp in
  let regs = 1 lsl rb and lanes = 1 lsl lb and warps = 1 lsl wb in
  let axis_bits in_dim =
    List.init (Layout.in_bits l in_dim) Fun.id
    |> List.filter (fun k ->
           List.assoc_opt (Dims.dim axis) (Layout.basis l in_dim k)
           |> Option.value ~default:0 <> 0)
  in
  let reg_axis = axis_bits Dims.register in
  let lane_axis = axis_bits Dims.lane in
  let warp_axis = axis_bits Dims.warp in
  (* Slots: [0..regs) source/accumulators (reduced in place), one
     staging slot for shuffle/load traffic. *)
  let stage = regs in
  let map = { src_regs = regs; dst_base = 0; dst_regs = regs; total_slots = regs + 1 } in
  let body = ref [] in
  let emit i = body := i :: !body in
  (* 1. Register tree: fold the axis register bits pairwise. *)
  List.iteri
    (fun step bit ->
      ignore step;
      for r = 0 to regs - 1 do
        if r land (1 lsl bit) = 0 then
          emit (Gpusim.Isa.Bin { op; dst = r; a = r; b = r lor (1 lsl bit) })
      done)
    reg_axis;
  (* Broadcast the partial back into the reduced register positions so
     every register slot carries its group's partial. *)
  List.iter
    (fun bit ->
      for r = 0 to regs - 1 do
        if r land (1 lsl bit) <> 0 then
          emit (Gpusim.Isa.Mov { dst = r; src = r land lnot (1 lsl bit) })
      done)
    reg_axis;
  (* 2. Lane butterfly over the axis lane bits. *)
  List.iter
    (fun bit ->
      let src_lane =
        Array.init warps (fun _ -> Array.init lanes (fun lane -> lane lxor (1 lsl bit)))
      in
      let keep = Array.init warps (fun _ -> Array.make lanes true) in
      for r = 0 to regs - 1 do
        emit (Gpusim.Isa.Shfl_idx { dst = stage; src = r; src_lane; keep });
        emit (Gpusim.Isa.Bin { op; dst = r; a = r; b = stage })
      done)
    lane_axis;
  (* 3. Cross-warp partials via shared memory.  Each warp stores its
     partials; after the barrier everyone accumulates the other warps'
     copies of its own (lane, register) cell. *)
  if warp_axis <> [] then begin
    (* Cell [(w * lanes + lane) * regs + r] is [r lxor ((lane lor (w lsl
       lb)) lsl rb)]: register [r]'s cells are one address map with base
       [r], and warp [w lxor 2^bit]'s copy adds that bit's column to the
       base. *)
    let cols =
      F2.Bitmatrix.make ~rows:(rb + lb + wb) (Array.init (lb + wb) (fun j -> 1 lsl (rb + j)))
    in
    let at base = { Gpusim.Isa.base; cols } in
    for r = 0 to regs - 1 do
      emit (Gpusim.Isa.St_shared { slots = [ r ]; addr = at r; byte_width = 4 })
    done;
    emit Gpusim.Isa.Bar_sync;
    List.iter
      (fun bit ->
        for r = 0 to regs - 1 do
          let addr = at (r lxor (1 lsl (rb + lb + bit))) in
          emit (Gpusim.Isa.Ld_shared { slots = [ stage ]; addr; byte_width = 4 });
          emit (Gpusim.Isa.Bin { op; dst = r; a = r; b = stage })
        done;
        (* Re-publish the grown partials for the next exchange round. *)
        if List.length warp_axis > 1 then begin
          emit Gpusim.Isa.Bar_sync;
          for r = 0 to regs - 1 do
            emit (Gpusim.Isa.St_shared { slots = [ r ]; addr = at r; byte_width = 4 })
          done;
          emit Gpusim.Isa.Bar_sync
        end)
      warp_axis
  end;
  let program =
    {
      Gpusim.Isa.warps;
      lanes;
      smem_elems = max 1 (warps * lanes * regs);
      body = List.rev !body;
    }
  in
  (program, map, Layout.remove_out_dim l (Dims.dim axis))

let scan machine ~src ~axis =
  ignore machine;
  let l = src.Gpusim.Dist.layout in
  let rb = Layout.in_bits l Dims.register in
  let lb = Layout.in_bits l Dims.lane in
  let regs = 1 lsl rb and lanes = 1 lsl lb in
  let warps = 1 lsl Layout.in_bits l Dims.warp in
  let axis_bits in_dim =
    List.init (Layout.in_bits l in_dim) Fun.id
    |> List.filter (fun k ->
           List.assoc_opt (Dims.dim axis) (Layout.basis l in_dim k)
           |> Option.value ~default:0 <> 0)
  in
  if axis_bits Dims.warp <> [] then Error "warps split the scanned axis"
  else begin
    let reg_axis = axis_bits Dims.register in
    let lane_axis = axis_bits Dims.lane in
    (* The scan is positional: hardware order along the axis must match
       coordinate order, i.e. axis register/lane bits map to increasing
       coordinates in bit order.  The engine's blocked layouts satisfy
       this; reject otherwise. *)
    let monotone in_dim bits =
      let coords =
        List.map
          (fun k ->
            List.assoc_opt (Dims.dim axis) (Layout.basis l in_dim k)
            |> Option.value ~default:0)
          bits
      in
      List.sort compare coords = coords
    in
    if not (monotone Dims.register reg_axis && monotone Dims.lane lane_axis) then
      Error "axis bits are not in positional order"
    else begin
      let stage = regs in
      (* Slot [regs + 1] is never written: a constant zero used to give
         non-participating lanes a neutral addend. *)
      let zero_slot = regs + 1 in
      let map = { src_regs = regs; dst_base = 0; dst_regs = regs; total_slots = regs + 2 } in
      let body = ref [] in
      let emit i = body := i :: !body in
      (* 1. In-register inclusive scan: for each axis register bit (low
         to high), add the running totals of the lower half into the
         upper half's prefix.  Sequential emulation: iterate positions
         along the register-axis sub-order. *)
      let reg_positions =
        (* register slots sorted by their axis coordinate, grouped by
           non-axis bits *)
        let axis_mask = List.fold_left (fun a b -> a lor (1 lsl b)) 0 reg_axis in
        let groups = Hashtbl.create 16 in
        for r = 0 to regs - 1 do
          let key = r land lnot axis_mask in
          let cur = try Hashtbl.find groups key with Not_found -> [] in
          Hashtbl.replace groups key (r :: cur)
        done;
        Hashtbl.fold (fun _ rs acc -> List.rev rs :: acc) groups []
      in
      List.iter
        (fun group ->
          let rec go = function
            | a :: (b :: _ as rest) ->
                emit (Gpusim.Isa.Bin { op = `Add; dst = b; a = b; b = a });
                go rest
            | _ -> ()
          in
          go group)
        reg_positions;
      (* 2. Hillis-Steele over the axis lane bits: lane [l] adds the
         value from [l - 2^k] (in axis position terms) when its axis
         position has that bit set.  The "last register of the group"
         carries each thread's running total. *)
      let lane_pos lane =
        (* This lane's position along the axis among axis lanes. *)
        List.fold_left
          (fun (acc, i) bit -> ((if lane land (1 lsl bit) <> 0 then acc lor (1 lsl i) else acc), i + 1))
          (0, 0) lane_axis
        |> fst
      in
      let lane_with_pos lane pos =
        List.fold_left
          (fun (acc, i) bit ->
            let cleared = acc land lnot (1 lsl bit) in
            (((if pos land (1 lsl i) <> 0 then cleared lor (1 lsl bit) else cleared), i + 1)))
          (lane, 0) lane_axis
        |> fst
      in
      List.iteri
        (fun step _ ->
          let dist = 1 lsl step in
          (* Every register slot receives the partner's group total.
             The group total of the partner thread is its own prefix in
             the LAST slot of each register group; we add, per slot,
             the partner's total for that slot's group. *)
          let totals_of group = List.nth group (List.length group - 1) in
          let src_lane =
            Array.init warps (fun _ ->
                Array.init lanes (fun lane ->
                    let p = lane_pos lane in
                    if p >= dist then lane_with_pos lane (p - dist) else lane))
          in
          let keep =
            Array.init warps (fun _ -> Array.init lanes (fun lane -> lane_pos lane >= dist))
          in
          List.iter
            (fun group ->
              let total = totals_of group in
              (* Non-participating lanes add zero: reset the stage
                 first, then shuffle with the participation mask. *)
              emit (Gpusim.Isa.Mov { dst = stage; src = zero_slot });
              emit (Gpusim.Isa.Shfl_idx { dst = stage; src = total; src_lane; keep });
              List.iter
                (fun r -> emit (Gpusim.Isa.Bin { op = `Add; dst = r; a = r; b = stage }))
                group)
            reg_positions)
        lane_axis;
      Ok ({ Gpusim.Isa.warps; lanes; smem_elems = 1; body = List.rev !body }, map)
    end
  end
