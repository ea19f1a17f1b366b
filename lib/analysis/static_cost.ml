open Linear_layout
module Isa = Gpusim.Isa

type attribution = { index : int; class_ : string; cost : Gpusim.Cost.t }
type t = { total : Gpusim.Cost.t; per_instr : attribution list; estimate : float }

(* Add one instruction's {!Isa.price} to [c], after raising the
   interpreter's [Failure] on a malformed instruction ({!Isa.fault}), so
   [cost] and [Isa.run] agree even on malformed programs: both raise,
   or both return equal counters. *)
let add_instr machine (p : Isa.program) c instr =
  Option.iter (fun f -> failwith (Isa.fault_message instr f)) (Isa.fault p instr);
  Isa.price machine p c instr

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

(* LL810 on a divergence between the static cost and a fresh
   interpreter run of the same program. *)
let differential machine ~slots (p : Isa.program) =
  let static_total = cost machine p in
  let interp = Isa.run machine p (Isa.make_state p ~slots) in
  if static_total = interp then []
  else
    [
      Diagnostics.error ~code:"LL810"
        "static cost diverges from interpreted cost: static %a vs interpreted %a"
        Gpusim.Cost.pp static_total Gpusim.Cost.pp interp;
    ]

(* Plans with no warp-level lowering ({!Codegen.Lower.lowerable}) are
   executed algebraically and have no stream to price. *)
let lower_plan machine (pl : Codegen.Conversion.plan) =
  if not (Codegen.Lower.lowerable pl) then None
  else
    match Codegen.Lower.conversion machine pl with
    | exception Failure _ -> None
    | program, slots -> Some (program, slots)

(* The layout-search objective hook: the exact cost of the plan's
   lowered instruction stream, stored as the plan's verdict; [Cost.t]
   being mutable, every caller gets its own copy. *)
let reprice_conversion machine (pl : Codegen.Conversion.plan) =
  Plan_verdict.price machine pl (fun () ->
      Option.map (fun (program, _) -> cost machine program) (lower_plan machine pl))
  |> Option.map (fun c -> Gpusim.Cost.scale c 1)

let pp ppf t =
  Format.fprintf ppf "static cost %a = %.2f units@," Gpusim.Cost.pp t.total t.estimate;
  List.iter
    (fun a ->
      Format.fprintf ppf "  [%2d] %-10s %a@," a.index a.class_ Gpusim.Cost.pp a.cost)
    t.per_instr
