(* Random ISA programs and fault injectors, shared by the static-cost
   and interpreter tests.  Every generator draws from the
   [Random.State.t] it is given, so a seed replays a program. *)

module Isa = Gpusim.Isa

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
            let addr =
              tbl warps lanes (fun _ _ -> Random.State.int st (smem_elems - nvec + 1))
            in
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
  let fault i =
    match (Random.State.int st 3, body.(i)) with
    | 0, Isa.Sel { dst; src_slot } ->
        Isa.Sel { dst; src_slot = Array.sub src_slot 0 (warps - 1) }
    | 0, Isa.Scatter { src; dst_slot } ->
        Isa.Scatter { src; dst_slot = Array.map (fun r -> Array.sub r 0 (lanes / 2)) dst_slot }
    | 1, Isa.St_shared { slots; addr; byte_width } ->
        let past_end w l = if l = lanes - 1 then p.Isa.smem_elems else addr.(w).(l) in
        Isa.St_shared { slots; byte_width; addr = tbl warps lanes past_end }
    | 1, Isa.Ld_shared { slots; addr; byte_width } ->
        let negative w l = if l = 0 then -1 - w else addr.(w).(l) in
        Isa.Ld_shared { slots; byte_width; addr = tbl warps lanes negative }
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
   source lane out of range on lane 0 of warp 0, or lane 0's last
   element one past the end of shared memory. *)
let early_fault st (p : Isa.program) =
  let body = Array.of_list p.Isa.body in
  let n = Array.length body in
  let first_cell t v =
    let t = Array.map Array.copy t in
    if Array.length t > 0 && Array.length t.(0) > 0 then t.(0).(0) <- v;
    t
  in
  (if n > 0 then
     let i = Random.State.int st n in
     body.(i) <-
       (match body.(i) with
       | Isa.Shfl_idx s -> Isa.Shfl_idx { s with src_lane = first_cell s.src_lane p.Isa.lanes }
       | Isa.St_shared s ->
           let past = p.Isa.smem_elems - List.length s.slots + 1 in
           Isa.St_shared { s with addr = first_cell s.addr past }
       | Isa.Ld_shared s ->
           let past = p.Isa.smem_elems - List.length s.slots + 1 in
           Isa.Ld_shared { s with addr = first_cell s.addr past }
       | instr -> instr));
  { p with Isa.body = Array.to_list body }

(* The same program on a CTA with no threads — zero warps or zero lanes
   per warp, every table reshaped to match — so no instruction touches a
   lane and no operand is ever used. *)
let empty_cta st (p : Isa.program) =
  let warps, lanes = if Random.State.bool st then (0, p.Isa.lanes) else (p.Isa.warps, 0) in
  let re _ = Array.make warps [||] in
  let instr = function
    | Isa.Sel s -> Isa.Sel { s with src_slot = re s.src_slot }
    | Isa.Scatter s -> Isa.Scatter { s with dst_slot = re s.dst_slot }
    | Isa.Shfl_idx s -> Isa.Shfl_idx { s with src_lane = re s.src_lane; keep = re s.keep }
    | Isa.St_shared s -> Isa.St_shared { s with addr = re s.addr }
    | Isa.Ld_shared s -> Isa.Ld_shared { s with addr = re s.addr }
    | (Isa.Mov _ | Isa.Bin _ | Isa.Bar_sync) as i -> i
  in
  { p with Isa.warps; lanes; body = List.map instr p.Isa.body }
