type addr = { base : int; cols : F2.Bitmatrix.t }

type instr =
  | Mov of { dst : int; src : int }
  | Sel of { dst : int; src_slot : int array array }
  | Scatter of { src : int; dst_slot : int array array }
  | Shfl_idx of { dst : int; src : int; src_lane : int array array; keep : bool array array }
  | St_shared of { slots : int list; addr : addr; byte_width : int }
  | Ld_shared of { slots : int list; addr : addr; byte_width : int }
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

type fault = Shape | Address of int | Source_lane of int

let bad_shape p a =
  Array.length a <> p.warps || Array.exists (fun row -> Array.length row <> p.lanes) a

(* The first out-of-range source lane, in (warp, lane) order: one
   [while] loop per warp's row. *)
let first_lane p src_lane =
  let rec row w =
    if w >= p.warps then None
    else
      let r = src_lane.(w) and l = ref 0 in
      while !l < p.lanes && r.(!l) >= 0 && r.(!l) < p.lanes do
        incr l
      done;
      if !l = p.lanes then row (w + 1) else Some (Source_lane r.(!l), (w * p.lanes) + !l)
  in
  row 0

(* The bits that index [n] values: [log2 n] for a power of two, 0 for
   0 or 1. *)
let index_bits n = if n <= 1 then 0 else F2.Bitvec.width (n - 1)

(* Thread [t = w * lanes + l] is [l lor (w lsl lane_bits)] when [lanes]
   is a power of two, so its offset is [base lxor M t].  Threads [t] and
   [t + 1] differ in the bits of [t lxor (t + 1)]: [next cols t a] turns
   thread [t]'s offset [a] into thread [t + 1]'s. *)
let next cols t a = a lxor F2.Bitmatrix.apply cols (t lxor (t + 1))

let iter_addresses p { base; cols } f =
  let a = ref base in
  for t = 0 to (p.warps * p.lanes) - 1 do
    f t !a;
    a := next cols t !a
  done

(* The shape rule that makes {!price} exact: one column per lane and
   warp bit, a power-of-two lane count, and a base and columns aligned
   to a power-of-two vector. *)
let bad_addr p ~n { base; cols } =
  let aligned v = v land (n - 1) = 0 in
  F2.Bitmatrix.cols cols <> index_bits p.lanes + index_bits p.warps
  || (p.lanes <> 0 && not (Linear_layout.Util.is_pow2 p.lanes))
  || (not (Linear_layout.Util.is_pow2 n))
  || not (aligned base && Array.for_all aligned (F2.Bitmatrix.columns cols))

(* The first out-of-range element, in (warp, lane, element) order.  A
   lane touches [a0 .. a0 + n - 1]: its first out-of-range element is
   [a0] when negative, otherwise the first one at or past the end.  No
   lane needs a visit when the base is not negative and the OR of the
   base and the columns, which bounds every XOR of them, leaves room
   for [n] elements. *)
let first_addr p ~n { base; cols } =
  let e = p.smem_elems and threads = p.warps * p.lanes in
  let rec go t a0 =
    if t >= threads then None
    else if a0 < 0 then Some (Address a0, t * n)
    else if a0 + n > e then
      let i = max 0 (e - a0) in
      Some (Address (a0 + i), (t * n) + i)
    else go (t + 1) (next cols t a0)
  in
  let bound = Array.fold_left ( lor ) base (F2.Bitmatrix.columns cols) in
  if base >= 0 && bound + n <= e then None else go 0 base

(* The first fault of [instr] with its position in the interpreter's
   loop order: a shape fault comes before anything moves, an address at
   its index in (warp, lane, element) order, a source lane at
   [warp * lanes + lane]. *)
let locate p = function
  | Sel { src_slot = t; _ } | Scatter { dst_slot = t; _ } ->
      if bad_shape p t then Some (Shape, 0) else None
  | Shfl_idx { src_lane; keep; _ } ->
      if bad_shape p src_lane || bad_shape p keep then Some (Shape, 0)
      else first_lane p src_lane
  | St_shared { slots; addr; _ } | Ld_shared { slots; addr; _ } ->
      let n = List.length slots in
      if bad_addr p ~n addr then Some (Shape, 0) else first_addr p ~n addr
  | Mov _ | Bin _ | Bar_sync -> None

let fault p instr = Option.map fst (locate p instr)

let fault_message instr f =
  let name =
    match instr with
    | St_shared _ -> "st.shared"
    | Ld_shared _ -> "ld.shared"
    | _ -> instr_class instr
  in
  match f with
  | Shape -> name ^ ": per-warp/lane table has wrong shape"
  | Address _ -> name ^ ": address out of range"
  | Source_lane _ -> name ^ ": source lane out of range"

(* The largest entry of a per-warp/lane table, or [-1]. *)
let table_max t =
  let m = ref (-1) in
  for w = 0 to Array.length t - 1 do
    let row = t.(w) in
    for l = 0 to Array.length row - 1 do
      if row.(l) > !m then m := row.(l)
    done
  done;
  !m

(* The position of the first kept lane, in (warp, lane) order, or
   [max_int]. *)
let first_kept p keep =
  let rec row w =
    if w >= p.warps then max_int
    else
      let r = keep.(w) and l = ref 0 in
      while !l < p.lanes && not r.(!l) do
        incr l
      done;
      if !l = p.lanes then row (w + 1) else (w * p.lanes) + !l
  in
  row 0

(* The position of [instr]'s first out-of-range slot operand in the
   interpreter's (warp, lane, element) order, or [max_int] when every
   operand a lane uses is in range; an operand no lane uses never
   fails.  A shuffle's [src] fails at [-1]: every lane of warp 0
   publishes it before any lane receives.  [Sel] and [Scatter] have no
   positional fault to order against, so any position will do.  Slots
   are range-checked so that an out-of-range slot raises instead of
   reaching a neighbouring lane's registers. *)
let first_bad_slot p st instr =
  let bad s = s < 0 || s >= st.slots in
  let threads = p.warps * p.lanes in
  match instr with
  | Mov { dst; src } -> if threads > 0 && (bad dst || bad src) then 0 else max_int
  | Bin { dst; a; b; _ } -> if threads > 0 && (bad dst || bad a || bad b) then 0 else max_int
  | Sel { dst = fixed; src_slot = t } | Scatter { src = fixed; dst_slot = t } ->
      (* A lane uses both operands when its entry is not negative. *)
      if table_max t >= if bad fixed then 0 else st.slots then 0 else max_int
  | Shfl_idx { dst; src; keep; _ } ->
      if threads > 0 && bad src then -1 else if bad dst then first_kept p keep else max_int
  | St_shared { slots = sl; _ } | Ld_shared { slots = sl; _ } ->
      let rec go i = function [] -> max_int | s :: rest -> if bad s then i else go (i + 1) rest in
      if threads > 0 then go 0 sl else max_int
  | Bar_sync -> max_int

(* Raise where [instr] fails, if it does: a shape fault before anything
   moves, else the earlier of its {!locate} fault and its first
   out-of-range slot operand, the fault winning a tie: at one position,
   the fault is met before the operand is read. *)
let check p st instr =
  match locate p instr with
  | Some (Shape, _) -> failwith (fault_message instr Shape)
  | loc -> (
      let at = match loc with Some (_, pos) -> pos | None -> max_int in
      if first_bad_slot p st instr < at then invalid_arg "index out of bounds";
      match loc with Some (f, _) -> failwith (fault_message instr f) | None -> ())

(* The data movement of a shared-memory store or load. *)
let shared p st ~slots:sl ~addr ~store =
  let slots = st.slots and regs = st.regs and smem = st.smem in
  let sl = Array.of_list sl in
  iter_addresses p addr (fun t a0 ->
      let base = t * slots in
      for i = 0 to Array.length sl - 1 do
        let r = base + sl.(i) in
        if store then smem.(a0 + i) <- regs.(r) else regs.(r) <- smem.(a0 + i)
      done)

(* Execute one instruction: {!check} it, then move data with no
   per-element check.  A failing instruction moves nothing.
   [published] is a [lanes]-long buffer for shuffles. *)
let step ~bin p st published instr =
  check p st instr;
  let warps = p.warps and lanes = p.lanes in
  let threads = warps * lanes in
  let slots = st.slots and regs = st.regs in
  match instr with
  | Mov { dst; src } ->
      for t = 0 to threads - 1 do
        regs.((t * slots) + dst) <- regs.((t * slots) + src)
      done
  | Sel { dst; src_slot } ->
      for w = 0 to warps - 1 do
        let row = src_slot.(w) in
        for l = 0 to lanes - 1 do
          let s = row.(l) in
          if s >= 0 then
            let base = ((w * lanes) + l) * slots in
            regs.(base + dst) <- regs.(base + s)
        done
      done
  | Scatter { src; dst_slot } ->
      for w = 0 to warps - 1 do
        let row = dst_slot.(w) in
        for l = 0 to lanes - 1 do
          let s = row.(l) in
          if s >= 0 then
            let base = ((w * lanes) + l) * slots in
            regs.(base + s) <- regs.(base + src)
        done
      done
  | Shfl_idx { dst; src; src_lane; keep } ->
      for w = 0 to warps - 1 do
        (* All lanes publish, then all lanes receive: the warp's first
           kept lane reads every published value before any write.  A
           warp that keeps no lane moves nothing. *)
        let base = w * lanes * slots and from = src_lane.(w) and keep = keep.(w) in
        let unpublished = ref true in
        for l = 0 to lanes - 1 do
          if keep.(l) then begin
            if !unpublished then begin
              for l' = 0 to lanes - 1 do
                published.(l') <- regs.(base + (l' * slots) + src)
              done;
              unpublished := false
            end;
            regs.(base + (l * slots) + dst) <- published.(from.(l))
          end
        done
      done
  | St_shared { slots = sl; addr; byte_width = _ } -> shared p st ~slots:sl ~addr ~store:true
  | Ld_shared { slots = sl; addr; byte_width = _ } -> shared p st ~slots:sl ~addr ~store:false
  | Bin { op; dst; a; b } ->
      for t = 0 to threads - 1 do
        regs.((t * slots) + dst) <- bin op regs.((t * slots) + a) regs.((t * slots) + b)
      done
  | Bar_sync -> ()

let exec ~bin p st =
  let published = Array.make p.lanes 0 in
  List.iter (step ~bin p st published) p.body

let price machine p cost = function
  | Mov _ | Bin _ -> cost.Cost.alu <- cost.Cost.alu + p.warps
  | Sel _ | Scatter _ -> cost.Cost.alu <- cost.Cost.alu + (2 * p.warps)
  | Shfl_idx _ ->
      cost.Cost.shuffles <- cost.Cost.shuffles + p.warps;
      cost.Cost.alu <- cost.Cost.alu + p.warps
  | St_shared { slots; addr; byte_width } | Ld_shared { slots; addr; byte_width } ->
      (* Warp [w] accesses warp 0's offsets XOR [M (w lsl lane_bits)], a
         translate that permutes the words within each bank: every warp
         costs warp 0's count, which depends only on the lane columns. *)
      if p.lanes > 0 then begin
        let lane_cols = List.init (index_bits p.lanes) (F2.Bitmatrix.column addr.cols) in
        let vec_bits = index_bits (List.length slots) in
        cost.Cost.smem_wavefronts <-
          cost.Cost.smem_wavefronts
          + (p.warps * Banks.linear_wavefronts machine ~byte_width ~vec_bits lane_cols)
      end;
      cost.Cost.smem_insts <- cost.Cost.smem_insts + p.warps
  | Bar_sync -> cost.Cost.barriers <- cost.Cost.barriers + 1

let arith op x y = match op with `Add -> x + y | `Max -> max x y

let run machine p st =
  let cost = Cost.zero () in
  (* One flag read for the whole run keeps the per-instruction overhead
     at a single branch when nothing is observing. *)
  let obs = Obs.enabled () in
  let published = Array.make p.lanes 0 in
  List.iter
    (fun instr ->
      if obs then Obs.Metrics.incr ("isa.instr." ^ instr_class instr);
      step ~bin:arith p st published instr;
      price machine p cost instr)
    p.body;
  if obs then
    Obs.Metrics.observe "isa.cost.estimate"
      (int_of_float (ceil (Cost.estimate machine cost)));
  cost

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
        (byte_width * 8) addr.base pp_slots slots
  | Ld_shared { slots; addr; byte_width } ->
      Format.fprintf ppf "ld.shared%s.b%d %a, [base + lane offsets, e.g. %d]"
        (vec_suffix (List.length slots))
        (byte_width * 8) pp_slots slots addr.base
  | Bin { op; dst; a; b } ->
      Format.fprintf ppf "%s.s32 r%d, r%d, r%d"
        (match op with `Add -> "add" | `Max -> "max")
        dst a b
  | Bar_sync -> Format.fprintf ppf "bar.sync 0"

let pp ppf p =
  Format.fprintf ppf "// %d warps x %d lanes, %d shared elements@." p.warps p.lanes p.smem_elems;
  List.iter (fun i -> Format.fprintf ppf "  %a@." pp_instr i) p.body
