open Linear_layout
module Isa = Gpusim.Isa

type attribution = { index : int; class_ : string; cost : Gpusim.Cost.t }
type t = { total : Gpusim.Cost.t; per_instr : attribution list; estimate : float }

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

(* {2 Per-plan verdicts}

   A conversion plan is an immutable value, and the plan caches hand
   out one physically shared value per key, so what the layout search
   asks of a plan — its re-price under the LL810 differential, and its
   location-free bank, race and resource errors — is a fixed property
   of that value.  Each field is computed on first demand and read on
   every later one, from a per-domain ephemeron table keyed by the
   physical identity of the plan and of the machine: an entry lives as
   long as its plan does, so it goes when the plan caches drop the
   plan, and a plan built outside the caches is a fresh key that
   misses.  No lowered program is kept, only the price and the
   diagnostics.  A raised [Failure] is never stored: the next demand
   recomputes it and raises again. *)
type verdict = {
  mutable price : Gpusim.Cost.t option option;
  mutable errors : Diagnostics.t list option;
}

module Verdicts =
  Ephemeron.K2.Make
    (struct
      type t = Codegen.Conversion.plan

      let equal = ( == )

      let hash (p : t) =
        (Layout.Memo.hash p.Codegen.Conversion.src * 31)
        lxor Layout.Memo.hash p.Codegen.Conversion.dst
        lxor p.Codegen.Conversion.byte_width
    end)
    (struct
      type t = Gpusim.Machine.t

      let equal = ( == )
      let hash (m : t) = Hashtbl.hash m.Gpusim.Machine.name
    end)

let verdicts : verdict Verdicts.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Verdicts.create 64)

(* Read the field [get] of the plan's verdict, or [compute] it and
   [set] it on a miss. *)
let verdict_field ~get ~set machine plan compute =
  let tbl = Domain.DLS.get verdicts in
  let v =
    match Verdicts.find_opt tbl (plan, machine) with
    | Some v -> v
    | None ->
        let v = { price = None; errors = None } in
        Verdicts.replace tbl (plan, machine) v;
        v
  in
  match get v with
  | Some x ->
      if Obs.enabled () then Obs.Metrics.incr "analysis.plan_verdicts.hits";
      x
  | None ->
      if Obs.enabled () then Obs.Metrics.incr "analysis.plan_verdicts.misses";
      let x = compute () in
      set v x;
      x

let plan_errors machine plan compute =
  verdict_field machine plan compute
    ~get:(fun v -> v.errors)
    ~set:(fun v e -> v.errors <- Some e)

(* Accumulate one instruction's cost into [c]; mirrors the increments of
   [Isa.run] case by case.  A malformed instruction raises the
   interpreter's [Failure] ({!Isa.fault}), so [cost] and [Isa.run] agree
   even on malformed programs: both raise, or both return equal
   counters. *)
let add_instr machine (p : Isa.program) c instr =
  Option.iter (fun f -> failwith (Isa.fault_message instr f)) (Isa.fault p instr);
  match instr with
  | Isa.Mov _ | Isa.Bin _ -> c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + p.Isa.warps
  | Isa.Sel _ | Isa.Scatter _ -> c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + (2 * p.Isa.warps)
  | Isa.Shfl_idx _ ->
      c.Gpusim.Cost.shuffles <- c.Gpusim.Cost.shuffles + p.Isa.warps;
      c.Gpusim.Cost.alu <- c.Gpusim.Cost.alu + p.Isa.warps
  | Isa.St_shared { slots; addr; byte_width } | Isa.Ld_shared { slots; addr; byte_width } ->
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

(* Plans with no warp-level lowering ({!Codegen.Lower.lowerable}) are
   executed algebraically and have no stream to price. *)
let lower_plan machine (pl : Codegen.Conversion.plan) =
  if not (Codegen.Lower.lowerable pl) then None
  else
    match Codegen.Lower.conversion machine pl with
    | exception Failure _ -> None
    | program, slots -> Some (program, slots)

(* The layout-search objective hook: the exact cost of the plan's
   lowered instruction stream, with the static≡dynamic differential
   asserted per plan so a search can never rank candidates with a
   mispriced stream.  The static cost is computed once and is both the
   differential's left-hand side and the returned price; it is stored
   as the plan's verdict, and [Cost.t] being mutable, every caller gets
   its own copy. *)
let reprice_conversion machine (pl : Codegen.Conversion.plan) =
  verdict_field machine pl
    ~get:(fun v -> v.price)
    ~set:(fun v p -> v.price <- Some p)
    (fun () ->
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
          Some c)
  |> Option.map (fun c -> Gpusim.Cost.scale c 1)

let pp ppf t =
  Format.fprintf ppf "static cost %a = %.2f units@," Gpusim.Cost.pp t.total t.estimate;
  List.iter
    (fun a ->
      Format.fprintf ppf "  [%2d] %-10s %a@," a.index a.class_ Gpusim.Cost.pp a.cost)
    t.per_instr
