(* Random ISA programs and fault injectors, shared by the static-cost
   and interpreter tests.  Every generator draws from the
   [Random.State.t] it is given, so a seed replays a program. *)

module Isa = Gpusim.Isa

(* {1 Affine addresses} *)

(* The address map with base [base] and columns [cols]: the lane bits'
   images, then the warp bits'. *)
let affine base cols =
  let cols = Array.of_list cols in
  { Isa.base; cols = F2.Bitmatrix.make ~rows:(Array.fold_left (fun w c -> max w (F2.Bitvec.width c)) 0 cols) cols }

(* The bits that index [n] values. *)
let index_bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* The map expanded to its per-warp, per-lane offsets, thread bit by
   thread bit: the point model the oracles price and run. *)
let rows (p : Isa.program) (a : Isa.addr) =
  let lane_bits = index_bits p.Isa.lanes in
  Array.init p.Isa.warps (fun w ->
      Array.init p.Isa.lanes (fun l ->
          let t = l lor (w lsl lane_bits) and o = ref a.Isa.base in
          for j = 0 to F2.Bitmatrix.cols a.Isa.cols - 1 do
            if t land (1 lsl j) <> 0 then o := !o lxor F2.Bitmatrix.column a.Isa.cols j
          done;
          !o))

let columns (a : Isa.addr) = Array.to_list (F2.Bitmatrix.columns a.Isa.cols)

(* A random map for [warps x lanes] accesses of [nvec] elements that
   stays below [smem_elems]: base and columns are multiples of [nvec]
   under the largest power of two [top <= smem_elems], so every XOR of
   them is too, and so is each lane's last element.  Zero and repeated
   columns make broadcasts, large strides bank conflicts. *)
let random_addr st ~warps ~lanes ~nvec ~smem_elems =
  let top =
    let rec go t = if 2 * t <= smem_elems then go (2 * t) else t in
    go 1
  in
  let draw () = nvec * Random.State.int st (max 1 (top / nvec)) in
  affine (draw ()) (List.init (index_bits lanes + index_bits warps) (fun _ -> draw ()))

(* Raw random ISA programs exercising every instruction class with
   valid immediates. *)
let tbl warps lanes f = Array.init warps (fun w -> Array.init lanes (fun l -> f w l))

let fuzz_isa_program st =
  let warps = 1 + Random.State.int st 4 in
  let lanes = [| 8; 16; 32 |].(Random.State.int st 3) in
  let smem_elems = 64 + Random.State.int st 512 in
  let slots = 4 + Random.State.int st 8 in
  let slot () = Random.State.int st slots in
  let steps = 3 + Random.State.int st 12 in
  let body =
    List.init steps (fun _ ->
        match Random.State.int st 8 with
        | 0 -> Isa.Mov { dst = slot (); src = slot () }
        | 1 ->
            Isa.Sel
              {
                dst = slot ();
                src_slot =
                  tbl warps lanes (fun _ _ ->
                      if Random.State.bool st then slot () else -1);
              }
        | 2 ->
            Isa.Scatter
              {
                src = slot ();
                dst_slot =
                  tbl warps lanes (fun _ _ ->
                      if Random.State.bool st then slot () else -1);
              }
        | 3 ->
            Isa.Shfl_idx
              {
                dst = slot ();
                src = slot ();
                src_lane = tbl warps lanes (fun _ _ -> Random.State.int st lanes);
                keep = tbl warps lanes (fun _ _ -> Random.State.bool st);
              }
        | 4 | 5 ->
            let nvec = 1 lsl Random.State.int st 2 in
            let base = slot () in
            let slots_l = List.init nvec (fun i -> (base + i) mod slots) in
            let addr = random_addr st ~warps ~lanes ~nvec ~smem_elems in
            let byte_width = [| 1; 2; 4 |].(Random.State.int st 3) in
            if Random.State.bool st then
              Isa.St_shared { slots = slots_l; addr; byte_width }
            else Isa.Ld_shared { slots = slots_l; addr; byte_width }
        | 6 ->
            Isa.Bin
              {
                op = (if Random.State.bool st then `Add else `Max);
                dst = slot ();
                a = slot ();
                b = slot ();
              }
        | _ -> Isa.Bar_sync)
  in
  ({ Isa.warps; lanes; smem_elems; body }, slots)

let inject st (p : Isa.program) =
  let body = Array.of_list p.Isa.body in
  let n = Array.length body in
  let lanes = p.Isa.lanes and warps = p.Isa.warps in
  (* One column with a bit at or past the end: the threads that set its
     thread bit are out of range. *)
  let beyond slots (a : Isa.addr) =
    let bit = 1 lsl index_bits (max p.Isa.smem_elems (List.length slots)) in
    let j = Random.State.int st (max 1 (F2.Bitmatrix.cols a.Isa.cols)) in
    affine a.Isa.base (List.mapi (fun k c -> if k = j then c lor bit else c) (columns a))
  in
  let fault i =
    match (Random.State.int st 3, body.(i)) with
    | 0, Isa.Sel { dst; src_slot } ->
        Isa.Sel { dst; src_slot = Array.sub src_slot 0 (warps - 1) }
    | 0, Isa.Scatter { src; dst_slot } ->
        Isa.Scatter { src; dst_slot = Array.map (fun r -> Array.sub r 0 (lanes / 2)) dst_slot }
    | 0, Isa.St_shared ({ addr; _ } as s) ->
        Isa.St_shared { s with addr = affine addr.Isa.base (List.tl (columns addr)) }
    | 0, Isa.Ld_shared ({ slots; addr; _ } as s) when List.length slots > 1 ->
        (* A base off the vector's alignment. *)
        Isa.Ld_shared { s with addr = { addr with Isa.base = addr.Isa.base + 1 } }
    | 1, Isa.St_shared ({ slots; addr; _ } as s) ->
        (* Past the end from lane 0 of warp 0 on. *)
        let n = List.length slots in
        Isa.St_shared { s with addr = { addr with Isa.base = (p.Isa.smem_elems + n - 1) / n * n } }
    | 1, Isa.Ld_shared ({ slots; addr; _ } as s) ->
        let n = List.length slots in
        Isa.Ld_shared { s with addr = { addr with Isa.base = -n * (1 + Random.State.int st 4) } }
    | 2, Isa.St_shared s -> Isa.St_shared { s with addr = beyond s.slots s.addr }
    | 2, Isa.Ld_shared s -> Isa.Ld_shared { s with addr = beyond s.slots s.addr }
    | _, Isa.Shfl_idx { dst; src; src_lane; keep } ->
        let beyond w l = if l = 1 then lanes + w else src_lane.(w).(l) in
        Isa.Shfl_idx { dst; src; keep; src_lane = tbl warps lanes beyond }
    | _, instr -> instr
  in
  for _ = 1 to 1 + Random.State.int st 3 do
    let i = Random.State.int st (max 1 n) in
    if n > 0 then body.(i) <- fault i
  done;
  { p with Isa.body = Array.to_list body }

(* Register operands out of range, on one to three instructions: a
   negative slot or one at or past [slots] for a plain operand, one at
   or past [slots] for a per-lane table entry (negative entries skip the
   lane).  Some variants leave the instruction touching no lane — a
   [Sel]/[Scatter] table of [-1]s, a shuffle that keeps no lane — so the
   bad operand is never used. *)
let bad_registers st ~slots (p : Isa.program) =
  let body = Array.of_list p.Isa.body in
  let n = Array.length body in
  let bad () =
    if Random.State.bool st then -1 - Random.State.int st 3 else slots + Random.State.int st 3
  in
  let beyond () = slots + Random.State.int st 3 in
  let set_one t v =
    let t = Array.map Array.copy t in
    let w = Random.State.int st (max 1 (Array.length t)) in
    if w < Array.length t && Array.length t.(w) > 0 then
      t.(w).(Random.State.int st (Array.length t.(w))) <- v;
    t
  in
  let none t = Array.map (fun row -> Array.make (Array.length row) (-1)) t in
  let fault = function
    | Isa.Mov { dst; src } ->
        if Random.State.bool st then Isa.Mov { dst = bad (); src }
        else Isa.Mov { dst; src = bad () }
    | Isa.Bin { op; dst; a; b } -> (
        match Random.State.int st 3 with
        | 0 -> Isa.Bin { op; dst = bad (); a; b }
        | 1 -> Isa.Bin { op; dst; a = bad (); b }
        | _ -> Isa.Bin { op; dst; a; b = bad () })
    | Isa.Sel { dst; src_slot } -> (
        match Random.State.int st 3 with
        | 0 -> Isa.Sel { dst = bad (); src_slot }
        | 1 -> Isa.Sel { dst = bad (); src_slot = none src_slot }
        | _ -> Isa.Sel { dst; src_slot = set_one src_slot (beyond ()) })
    | Isa.Scatter { src; dst_slot } -> (
        match Random.State.int st 3 with
        | 0 -> Isa.Scatter { src = bad (); dst_slot }
        | 1 -> Isa.Scatter { src = bad (); dst_slot = none dst_slot }
        | _ -> Isa.Scatter { src; dst_slot = set_one dst_slot (beyond ()) })
    | Isa.Shfl_idx { dst; src; src_lane; keep } -> (
        match Random.State.int st 3 with
        | 0 -> Isa.Shfl_idx { dst; src = bad (); src_lane; keep }
        | 1 -> Isa.Shfl_idx { dst = bad (); src; src_lane; keep }
        | _ ->
            let keep = Array.map (fun row -> Array.make (Array.length row) false) keep in
            Isa.Shfl_idx { dst = bad (); src; src_lane; keep })
    | Isa.St_shared { slots = sl; addr; byte_width } ->
        let j = Random.State.int st (max 1 (List.length sl)) in
        Isa.St_shared { slots = List.mapi (fun i s -> if i = j then bad () else s) sl; addr; byte_width }
    | Isa.Ld_shared { slots = sl; addr; byte_width } ->
        let j = Random.State.int st (max 1 (List.length sl)) in
        Isa.Ld_shared { slots = List.mapi (fun i s -> if i = j then bad () else s) sl; addr; byte_width }
    | Isa.Bar_sync -> Isa.Bar_sync
  in
  for _ = 1 to 1 + Random.State.int st 3 do
    if n > 0 then
      let i = Random.State.int st n in
      body.(i) <- fault body.(i)
  done;
  { p with Isa.body = Array.to_list body }

(* A fault at the very first positions of one shuffle or shared-memory
   instruction, where it races the first out-of-range slot operand: a
   source lane out of range on lane 0 of warp 0, or lane 0's block at
   the first multiple of the vector width whose block does not fit, so
   its first out-of-range element is its first one, or a later one when
   [smem_elems] is not a multiple of that width. *)
let early_fault st (p : Isa.program) =
  let body = Array.of_list p.Isa.body in
  let n = Array.length body in
  let first_cell t v =
    let t = Array.map Array.copy t in
    if Array.length t > 0 && Array.length t.(0) > 0 then t.(0).(0) <- v;
    t
  in
  let first_past slots (a : Isa.addr) =
    let n = List.length slots in
    { a with Isa.base = p.Isa.smem_elems / n * n }
  in
  (if n > 0 then
     let i = Random.State.int st n in
     body.(i) <-
       (match body.(i) with
       | Isa.Shfl_idx s -> Isa.Shfl_idx { s with src_lane = first_cell s.src_lane p.Isa.lanes }
       | Isa.St_shared s -> Isa.St_shared { s with addr = first_past s.slots s.addr }
       | Isa.Ld_shared s -> Isa.Ld_shared { s with addr = first_past s.slots s.addr }
       | instr -> instr));
  { p with Isa.body = Array.to_list body }

(* The same program on a CTA with no threads — zero warps or zero lanes
   per warp, every table reshaped to match — so no instruction touches a
   lane and no operand is ever used. *)
let empty_cta st (p : Isa.program) =
  let warps, lanes = if Random.State.bool st then (0, p.Isa.lanes) else (p.Isa.warps, 0) in
  let re _ = Array.make warps [||] in
  (* Keep the columns of the thread bits that remain. *)
  let lane_bits = index_bits p.Isa.lanes in
  let cols (a : Isa.addr) =
    affine a.Isa.base
      (List.filteri (fun j _ -> if warps = 0 then j < lane_bits else j >= lane_bits) (columns a))
  in
  let instr = function
    | Isa.Sel s -> Isa.Sel { s with src_slot = re s.src_slot }
    | Isa.Scatter s -> Isa.Scatter { s with dst_slot = re s.dst_slot }
    | Isa.Shfl_idx s -> Isa.Shfl_idx { s with src_lane = re s.src_lane; keep = re s.keep }
    | Isa.St_shared s -> Isa.St_shared { s with addr = cols s.addr }
    | Isa.Ld_shared s -> Isa.Ld_shared { s with addr = cols s.addr }
    | (Isa.Mov _ | Isa.Bin _ | Isa.Bar_sync) as i -> i
  in
  { p with Isa.warps; lanes; body = List.map instr p.Isa.body }
