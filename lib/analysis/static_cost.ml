open Linear_layout
module Isa = Gpusim.Isa

type attribution = { index : int; class_ : string; cost : Gpusim.Cost.t }
type t = { total : Gpusim.Cost.t; per_instr : attribution list; estimate : float }

(* The checks below reproduce the interpreter's failure modes verbatim
   (same conditions, same messages), so [cost] and [Isa.run] agree even
   on malformed programs: both raise, or both return equal counters. *)
let check_lane_table (p : Isa.program) name a =
  if
    Array.length a <> p.Isa.warps
    || Array.exists (fun row -> Array.length row <> p.Isa.lanes) a
  then failwith (name ^ ": per-warp/lane table has wrong shape")

let check_smem_addr (p : Isa.program) name ~slots ~addr =
  (* The interpreter touches [a0 + i] for each vector slot i and fails
     on the first out-of-range element; the raise/no-raise decision is
     equivalent to a per-lane range check on the whole span, which is
     what matters for parity (the exception aborts the run either
     way). *)
  let n = List.length slots in
  if n > 0 then
    Array.iter
      (fun row ->
        Array.iter
          (fun a0 ->
            if a0 < 0 || a0 + n - 1 >= p.Isa.smem_elems then
              failwith (name ^ ": address out of range"))
          row)
      addr

(* {2 Wavefront memoization}

   [Banks.wavefronts] depends only on [bank_bytes], [num_banks] and the
   byte-address/width sequence — and it is invariant under shifting
   every address by a multiple of [num_banks * bank_bytes] bytes (the
   phase split ignores addresses entirely, and each touched word moves
   by the same multiple of [num_banks], preserving per-bank
   distinctness).  The analyzer only needs the count, not the data
   movement, so it can normalize each warp's address row to that period
   and memoize: conversion streams repeat the same bank pattern across
   warps and register chunks at shifted bases, and autotuning re-prices
   the same streams many times.  The interpreter cannot take this
   shortcut — it has to execute every lane — which is exactly why
   static pricing is the cheap side of the differential.  Correctness
   is not taken on faith: the memoized cost is held equal to the
   interpreted cost by [differential] on every golden row and fuzz
   program. *)
let wavefront_memo : (int * int * int * int array, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 512)

let warp_wavefronts machine ~bytes ~byte_width (addr_row : int array) =
  let nb = machine.Gpusim.Machine.num_banks in
  let wb = machine.Gpusim.Machine.bank_bytes in
  let lanes = Array.length addr_row in
  let row = Array.make lanes 0 in
  let mn = ref max_int in
  for l = 0 to lanes - 1 do
    let a = addr_row.(l) * byte_width in
    row.(l) <- a;
    if a < !mn then mn := a
  done;
  let period = nb * wb in
  if lanes = 0 || period <= 0 || !mn < 0 then
    Gpusim.Banks.wavefronts_row machine ~byte_width:1 ~bytes row
  else begin
    let shift = !mn / period * period in
    if shift > 0 then
      for l = 0 to lanes - 1 do
        row.(l) <- row.(l) - shift
      done;
    let tbl = Domain.DLS.get wavefront_memo in
    let key = (nb, wb, bytes, row) in
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = Gpusim.Banks.wavefronts_row machine ~byte_width:1 ~bytes row in
        Hashtbl.add tbl key v;
        v
  end

(* Accumulate one instruction's cost into [c]; mirrors the increments of
   [Isa.run] case by case. *)
let add_instr machine (p : Isa.program) c instr =
  match instr with
  | Isa.Mov _ | Isa.Bin _ -> c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + p.Isa.warps
  | Isa.Sel { src_slot; _ } ->
      check_lane_table p "sel" src_slot;
      c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + (2 * p.Isa.warps)
  | Isa.Scatter { dst_slot; _ } ->
      check_lane_table p "scatter" dst_slot;
      c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + (2 * p.Isa.warps)
  | Isa.Shfl_idx { src_lane; keep; _ } ->
      check_lane_table p "shfl" src_lane;
      check_lane_table p "shfl" keep;
      Array.iter
        (Array.iter (fun s ->
             if s < 0 || s >= p.Isa.lanes then failwith "shfl: source lane out of range"))
        src_lane;
      c.Gpusim.Cost.shuffles <- c.Gpusim.Cost.shuffles + p.Isa.warps;
      c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + p.Isa.warps
  | Isa.St_shared { slots; addr; byte_width } ->
      check_lane_table p "st.shared" addr;
      check_smem_addr p "st.shared" ~slots ~addr;
      let bytes = List.length slots * byte_width in
      for w = 0 to p.Isa.warps - 1 do
        c.Gpusim.Cost.smem_wavefronts <-
          c.Gpusim.Cost.smem_wavefronts + warp_wavefronts machine ~bytes ~byte_width addr.(w)
      done;
      c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + p.Isa.warps
  | Isa.Ld_shared { slots; addr; byte_width } ->
      check_lane_table p "ld.shared" addr;
      check_smem_addr p "ld.shared" ~slots ~addr;
      let bytes = List.length slots * byte_width in
      for w = 0 to p.Isa.warps - 1 do
        c.Gpusim.Cost.smem_wavefronts <-
          c.Gpusim.Cost.smem_wavefronts + warp_wavefronts machine ~bytes ~byte_width addr.(w)
      done;
      c.Gpusim.Cost.smem_insts <- c.Gpusim.Cost.smem_insts + p.Isa.warps
  | Isa.Bar_sync -> c.Gpusim.Cost.barriers <- c.Gpusim.Cost.barriers + 1

let cost machine (p : Isa.program) =
  let c = Gpusim.Cost.zero () in
  List.iter (add_instr machine p c) p.Isa.body;
  c

let analyze machine (p : Isa.program) =
  let total = Gpusim.Cost.zero () in
  let per_instr =
    List.mapi
      (fun index instr ->
        let cost = Gpusim.Cost.zero () in
        add_instr machine p cost instr;
        Gpusim.Cost.add total cost;
        { index; class_ = Isa.instr_class instr; cost })
      p.Isa.body
  in
  let estimate = Gpusim.Cost.estimate machine total in
  if Obs.enabled () then begin
    Obs.Metrics.incr "analysis.static_cost.programs";
    Obs.Metrics.incr ~by:(List.length per_instr) "analysis.static_cost.instrs";
    Obs.Metrics.observe "analysis.static_cost.estimate" (int_of_float (ceil estimate))
  end;
  { total; per_instr; estimate }

(* LL810 on a divergence between an already computed static cost and a
   fresh interpreter run of the same program. *)
let check_against_interpreter machine ~slots (p : Isa.program) static_total =
  let interp = Isa.run machine p (Isa.make_state p ~slots) in
  if static_total = interp then []
  else
    [
      Diagnostics.error ~code:"LL810"
        "static cost diverges from interpreted cost: static %a vs interpreted %a"
        Gpusim.Cost.pp static_total Gpusim.Cost.pp interp;
    ]

let differential machine ~slots p = check_against_interpreter machine ~slots p (cost machine p)

type lowered = {
  program : Isa.program;
  slots : Codegen.Lower.slot_map;
  analysis : t;
}

(* Same guard as the engine's executor and Transval: global round trips
   are algebraic by design, and plans whose CTA shapes differ between
   the two sides (e.g. post-reduction layouts with fewer live lane
   bits) have no warp-level lowering. *)
let lower_plan machine (pl : Codegen.Conversion.plan) =
  let src = pl.Codegen.Conversion.src and dst = pl.Codegen.Conversion.dst in
  let cta_mismatch =
    Layout.in_size src Dims.lane <> Layout.in_size dst Dims.lane
    || Layout.in_size src Dims.warp <> Layout.in_size dst Dims.warp
  in
  match pl.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Global_roundtrip -> None
  | _ when cta_mismatch -> None
  | _ -> (
      match Codegen.Lower.conversion machine pl with
      | exception Failure _ -> None
      | program, slots -> Some (program, slots))

let plan machine (pl : Codegen.Conversion.plan) =
  match lower_plan machine pl with
  | None -> None
  | Some (program, slots) -> Some { program; slots; analysis = analyze machine program }

(* The layout-search objective hook: the exact cost of the plan's
   lowered instruction stream, with the static≡dynamic differential
   asserted per plan so a search can never rank candidates with a
   mispriced stream.  The static cost is computed once and is both the
   differential's left-hand side and the returned price. *)
let reprice_conversion machine (pl : Codegen.Conversion.plan) =
  match lower_plan machine pl with
  | None -> None
  | Some (program, sm) ->
      let c = cost machine program in
      let slots = sm.Codegen.Lower.total_slots in
      (match check_against_interpreter machine ~slots program c with
      | [] -> ()
      | d :: _ ->
          failwith
            (Format.asprintf "Static_cost.reprice_conversion: %a" Diagnostics.pp d));
      Some c

let pp ppf t =
  Format.fprintf ppf "static cost %a = %.2f units@," Gpusim.Cost.pp t.total t.estimate;
  List.iter
    (fun a ->
      Format.fprintf ppf "  [%2d] %-10s %a@," a.index a.class_ Gpusim.Cost.pp a.cost)
    t.per_instr
