(* The ISA interpreter's former per-element loop, kept as a differential
   oracle for [Gpusim.Isa.exec]: every slot operand is range-checked
   where the loop uses it, and a fault found by [locate] raises where
   the (warp, lane, element) loop reaches its position.  The library
   now checks each instruction once before moving anything;
   test_gpusim.ml asserts that both end in the same registers and
   shared memory, or raise the same exception. *)

module Isa = Gpusim.Isa

let bad_shape (p : Isa.program) a =
  Array.length a <> p.Isa.warps || Array.exists (fun row -> Array.length row <> p.Isa.lanes) a

let first_lane (p : Isa.program) src_lane =
  let rec go w l =
    if w >= p.Isa.warps then None
    else if l >= p.Isa.lanes then go (w + 1) 0
    else
      let s = src_lane.(w).(l) in
      if s < 0 || s >= p.Isa.lanes then Some (Isa.Source_lane s, (w * p.Isa.lanes) + l)
      else go w (l + 1)
  in
  go 0 0

(* The shape rule of shared-memory address maps, restated: one column
   per thread bit, a power-of-two lane count (or none), a power-of-two
   vector, and a base and columns that are multiples of it. *)
let bad_addr (p : Isa.program) ~n (a : Isa.addr) =
  let pow2 k = k > 0 && k land (k - 1) = 0 in
  let aligned v = v mod n = 0 in
  F2.Bitmatrix.cols a.Isa.cols <> Isa_fuzz.index_bits p.Isa.lanes + Isa_fuzz.index_bits p.Isa.warps
  || (p.Isa.lanes <> 0 && not (pow2 p.Isa.lanes))
  || (not (pow2 n))
  || not (List.for_all aligned (a.Isa.base :: Isa_fuzz.columns a))

let first_addr (p : Isa.program) ~n addr =
  let e = p.Isa.smem_elems and addr = Isa_fuzz.rows p addr in
  let rec go w l =
    if w >= p.Isa.warps then None
    else if l >= p.Isa.lanes then go (w + 1) 0
    else
      let a0 = addr.(w).(l) and t = (w * p.Isa.lanes) + l in
      if a0 < 0 then Some (Isa.Address a0, t * n)
      else if a0 + n > e then
        let i = max 0 (e - a0) in
        Some (Isa.Address (a0 + i), (t * n) + i)
      else go w (l + 1)
  in
  go 0 0

let locate p = function
  | Isa.Sel { src_slot = t; _ } | Isa.Scatter { dst_slot = t; _ } ->
      if bad_shape p t then Some (Isa.Shape, 0) else None
  | Isa.Shfl_idx { src_lane; keep; _ } ->
      if bad_shape p src_lane || bad_shape p keep then Some (Isa.Shape, 0)
      else first_lane p src_lane
  | Isa.St_shared { slots; addr; _ } | Isa.Ld_shared { slots; addr; _ } ->
      let n = List.length slots in
      if bad_addr p ~n addr then Some (Isa.Shape, 0) else first_addr p ~n addr
  | Isa.Mov _ | Isa.Bin _ | Isa.Bar_sync -> None

let slot (st : Isa.state) s =
  if s < 0 || s >= st.Isa.slots then invalid_arg "index out of bounds" else s

let shared (p : Isa.program) (st : Isa.state) ~stop ~msg ~slots:sl ~addr ~store =
  let lanes = p.Isa.lanes and slots = st.Isa.slots and regs = st.Isa.regs and smem = st.Isa.smem in
  let sl = Array.of_list sl and addr = Isa_fuzz.rows p addr in
  let n = Array.length sl in
  for w = 0 to p.Isa.warps - 1 do
    let row = addr.(w) in
    for l = 0 to lanes - 1 do
      let t = (w * lanes) + l in
      let base = t * slots and a0 = row.(l) in
      for i = 0 to n - 1 do
        if (t * n) + i = stop then failwith msg;
        let a = a0 + i and r = base + slot st sl.(i) in
        if store then smem.(a) <- regs.(r) else regs.(r) <- smem.(a)
      done
    done
  done

let step ~bin (p : Isa.program) (st : Isa.state) published instr =
  let warps = p.Isa.warps and lanes = p.Isa.lanes in
  let threads = warps * lanes in
  let slots = st.Isa.slots and regs = st.Isa.regs in
  let stop, msg =
    match locate p instr with
    | None -> (max_int, "")
    | Some (Isa.Shape, _) -> failwith (Isa.fault_message instr Isa.Shape)
    | Some (f, pos) -> (pos, Isa.fault_message instr f)
  in
  match instr with
  | Isa.Mov { dst; src } ->
      if threads > 0 then begin
        let dst = slot st dst and src = slot st src in
        for t = 0 to threads - 1 do
          regs.((t * slots) + dst) <- regs.((t * slots) + src)
        done
      end
  | Isa.Sel { dst; src_slot } ->
      for w = 0 to warps - 1 do
        for l = 0 to lanes - 1 do
          let s = src_slot.(w).(l) and base = ((w * lanes) + l) * slots in
          if s >= 0 then regs.(base + slot st dst) <- regs.(base + slot st s)
        done
      done
  | Isa.Scatter { src; dst_slot } ->
      for w = 0 to warps - 1 do
        for l = 0 to lanes - 1 do
          let s = dst_slot.(w).(l) and base = ((w * lanes) + l) * slots in
          if s >= 0 then regs.(base + slot st s) <- regs.(base + slot st src)
        done
      done
  | Isa.Shfl_idx { dst; src; src_lane; keep } ->
      for w = 0 to warps - 1 do
        for l = 0 to lanes - 1 do
          published.(l) <- regs.((((w * lanes) + l) * slots) + slot st src)
        done;
        for l = 0 to lanes - 1 do
          if (w * lanes) + l = stop then failwith msg;
          if keep.(w).(l) then
            regs.((((w * lanes) + l) * slots) + slot st dst) <- published.(src_lane.(w).(l))
        done
      done
  | Isa.St_shared { slots = sl; addr; byte_width = _ } ->
      shared p st ~stop ~msg ~slots:sl ~addr ~store:true
  | Isa.Ld_shared { slots = sl; addr; byte_width = _ } ->
      shared p st ~stop ~msg ~slots:sl ~addr ~store:false
  | Isa.Bin { op; dst; a; b } ->
      if threads > 0 then begin
        let dst = slot st dst and a = slot st a and b = slot st b in
        for t = 0 to threads - 1 do
          regs.((t * slots) + dst) <- bin op regs.((t * slots) + a) regs.((t * slots) + b)
        done
      end
  | Isa.Bar_sync -> ()

let exec ~bin (p : Isa.program) st =
  let published = Array.make p.Isa.lanes 0 in
  List.iter (step ~bin p st published) p.Isa.body
