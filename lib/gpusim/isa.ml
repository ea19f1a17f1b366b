type instr =
  | Mov of { dst : int; src : int }
  | Sel of { dst : int; src_slot : int array array }
  | Scatter of { src : int; dst_slot : int array array }
  | Shfl_idx of { dst : int; src : int; src_lane : int array array; keep : bool array array }
  | St_shared of { slots : int list; addr : int array array; byte_width : int }
  | Ld_shared of { slots : int list; addr : int array array; byte_width : int }
  | Bin of { op : [ `Add | `Max ]; dst : int; a : int; b : int }
  | Bar_sync

type program = { warps : int; lanes : int; smem_elems : int; body : instr list }
type state = { slots : int; regs : int array; smem : int array }

let make_state p ~slots =
  { slots; regs = Array.make (p.warps * p.lanes * slots) 0; smem = Array.make p.smem_elems 0 }

let instr_class = function
  | Mov _ -> "mov"
  | Sel _ -> "sel"
  | Scatter _ -> "scatter"
  | Shfl_idx _ -> "shfl"
  | St_shared _ -> "st_shared"
  | Ld_shared _ -> "ld_shared"
  | Bin _ -> "bin"
  | Bar_sync -> "bar"

let run machine p st =
  let cost = Cost.zero () in
  (* One flag read for the whole run keeps the per-instruction overhead
     at a single branch when nothing is observing. *)
  let obs = Obs.enabled () in
  let warps = p.warps and lanes = p.lanes in
  let threads = warps * lanes in
  let slots = st.slots and regs = st.regs and smem = st.smem in
  (* Slot [s] of thread [t = w * lanes + l] is [regs.(t * slots + s)].
     Slots are range-checked: an out-of-range slot must raise, not reach
     a neighbouring lane's registers. *)
  let slot s = if s < 0 || s >= slots then invalid_arg "index out of bounds" else s in
  let check_lane_table name a =
    if
      Array.length a <> warps
      || Array.exists (fun row -> Array.length row <> lanes) a
    then failwith (name ^ ": per-warp/lane table has wrong shape")
  in
  let published = Array.make lanes 0 in
  let shared name ~slots:sl ~addr ~byte_width ~store =
    check_lane_table name addr;
    let sl = Array.of_list sl in
    let n = Array.length sl in
    for w = 0 to warps - 1 do
      let row = addr.(w) in
      for l = 0 to lanes - 1 do
        let base = ((w * lanes) + l) * slots and a0 = row.(l) in
        for i = 0 to n - 1 do
          let a = a0 + i in
          if a < 0 || a >= p.smem_elems then failwith (name ^ ": address out of range");
          let r = base + slot sl.(i) in
          if store then smem.(a) <- regs.(r) else regs.(r) <- smem.(a)
        done
      done;
      cost.Cost.smem_wavefronts <-
        cost.Cost.smem_wavefronts
        + Banks.wavefronts_row machine ~byte_width ~bytes:(n * byte_width) row
    done;
    cost.Cost.smem_insts <- cost.Cost.smem_insts + warps
  in
  List.iter
    (fun instr ->
      if obs then Obs.Metrics.incr ("isa.instr." ^ instr_class instr);
      match instr with
      | Mov { dst; src } ->
          if threads > 0 then begin
            let dst = slot dst and src = slot src in
            for t = 0 to threads - 1 do
              regs.((t * slots) + dst) <- regs.((t * slots) + src)
            done
          end;
          cost.Cost.alu <- cost.Cost.alu + warps
      | Sel { dst; src_slot } ->
          check_lane_table "sel" src_slot;
          for w = 0 to warps - 1 do
            for l = 0 to lanes - 1 do
              let s = src_slot.(w).(l) and base = ((w * lanes) + l) * slots in
              if s >= 0 then regs.(base + slot dst) <- regs.(base + slot s)
            done
          done;
          cost.Cost.alu <- cost.Cost.alu + (2 * warps)
      | Scatter { src; dst_slot } ->
          check_lane_table "scatter" dst_slot;
          for w = 0 to warps - 1 do
            for l = 0 to lanes - 1 do
              let s = dst_slot.(w).(l) and base = ((w * lanes) + l) * slots in
              if s >= 0 then regs.(base + slot s) <- regs.(base + slot src)
            done
          done;
          cost.Cost.alu <- cost.Cost.alu + (2 * warps)
      | Shfl_idx { dst; src; src_lane; keep } ->
          check_lane_table "shfl" src_lane;
          check_lane_table "shfl" keep;
          for w = 0 to warps - 1 do
            (* All lanes publish, then all lanes receive: read the
               published values before any write. *)
            for l = 0 to lanes - 1 do
              published.(l) <- regs.((((w * lanes) + l) * slots) + slot src)
            done;
            for l = 0 to lanes - 1 do
              let s = src_lane.(w).(l) in
              if s < 0 || s >= lanes then failwith "shfl: source lane out of range";
              if keep.(w).(l) then
                regs.((((w * lanes) + l) * slots) + slot dst) <- published.(s)
            done
          done;
          cost.Cost.shuffles <- cost.Cost.shuffles + warps;
          cost.Cost.alu <- cost.Cost.alu + warps
      | St_shared { slots = sl; addr; byte_width } ->
          shared "st.shared" ~slots:sl ~addr ~byte_width ~store:true
      | Ld_shared { slots = sl; addr; byte_width } ->
          shared "ld.shared" ~slots:sl ~addr ~byte_width ~store:false
      | Bin { op; dst; a; b } ->
          if threads > 0 then begin
            let dst = slot dst and a = slot a and b = slot b in
            for t = 0 to threads - 1 do
              let x = regs.((t * slots) + a) and y = regs.((t * slots) + b) in
              regs.((t * slots) + dst) <- (match op with `Add -> x + y | `Max -> max x y)
            done
          end;
          cost.Cost.alu <- cost.Cost.alu + warps
      | Bar_sync -> cost.Cost.barriers <- cost.Cost.barriers + 1)
    p.body;
  if obs then
    Obs.Metrics.observe "isa.cost.estimate"
      (int_of_float (ceil (Cost.estimate machine cost)));
  cost

type class_counts = {
  movs : int;
  sels : int;
  scatters : int;
  shuffles : int;
  shared_stores : int;
  shared_loads : int;
  bins : int;
  barriers : int;
}

let count_classes p =
  List.fold_left
    (fun c i ->
      match i with
      | Mov _ -> { c with movs = c.movs + 1 }
      | Sel _ -> { c with sels = c.sels + 1 }
      | Scatter _ -> { c with scatters = c.scatters + 1 }
      | Shfl_idx _ -> { c with shuffles = c.shuffles + 1 }
      | St_shared _ -> { c with shared_stores = c.shared_stores + 1 }
      | Ld_shared _ -> { c with shared_loads = c.shared_loads + 1 }
      | Bin _ -> { c with bins = c.bins + 1 }
      | Bar_sync -> { c with barriers = c.barriers + 1 })
    {
      movs = 0;
      sels = 0;
      scatters = 0;
      shuffles = 0;
      shared_stores = 0;
      shared_loads = 0;
      bins = 0;
      barriers = 0;
    }
    p.body

let pp_slots ppf slots =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map (fun s -> "r" ^ string_of_int s) slots))

let vec_suffix n = if n = 1 then "" else Printf.sprintf ".v%d" n

let pp_instr ppf = function
  | Mov { dst; src } -> Format.fprintf ppf "mov.b32 r%d, r%d" dst src
  | Sel { dst; _ } -> Format.fprintf ppf "selp.b32 r%d, [per-lane slot]" dst
  | Scatter { src; _ } -> Format.fprintf ppf "selp.b32 [per-lane slot], r%d" src
  | Shfl_idx { dst; src; src_lane; keep } ->
      let active =
        Array.fold_left
          (fun acc row -> acc + (Array.to_list row |> List.filter Fun.id |> List.length))
          0 keep
      in
      Format.fprintf ppf "shfl.sync.idx.b32 r%d, r%d, [lane table], active=%d/%d" dst src active
        (Array.fold_left (fun acc row -> acc + Array.length row) 0 src_lane)
  | St_shared { slots; addr; byte_width } ->
      Format.fprintf ppf "st.shared%s.b%d [base + lane offsets, e.g. %d], %a"
        (vec_suffix (List.length slots))
        (byte_width * 8) addr.(0).(0) pp_slots slots
  | Ld_shared { slots; addr; byte_width } ->
      Format.fprintf ppf "ld.shared%s.b%d %a, [base + lane offsets, e.g. %d]"
        (vec_suffix (List.length slots))
        (byte_width * 8) pp_slots slots addr.(0).(0)
  | Bin { op; dst; a; b } ->
      Format.fprintf ppf "%s.s32 r%d, r%d, r%d"
        (match op with `Add -> "add" | `Max -> "max")
        dst a b
  | Bar_sync -> Format.fprintf ppf "bar.sync 0"

let pp ppf p =
  Format.fprintf ppf "// %d warps x %d lanes, %d shared elements@." p.warps p.lanes p.smem_elems;
  List.iter (fun i -> Format.fprintf ppf "  %a@." pp_instr i) p.body
