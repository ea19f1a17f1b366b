open Linear_layout
module Isa = Gpusim.Isa

type attribution = { index : int; class_ : string; cost : Gpusim.Cost.t }
type t = { total : Gpusim.Cost.t; per_instr : attribution list; estimate : float }

(* {2 Per-plan verdicts}

   A conversion plan is an immutable value, and the plan caches hand
   out one physically shared value per key, so what the layout search
   asks of a plan — its static price, and its location-free bank, race
   and resource errors — is a fixed property of that value.  Each field is computed on first demand and read on
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
  verdict_field machine pl
    ~get:(fun v -> v.price)
    ~set:(fun v p -> v.price <- Some p)
    (fun () -> Option.map (fun (program, _) -> cost machine program) (lower_plan machine pl))
  |> Option.map (fun c -> Gpusim.Cost.scale c 1)

let pp ppf t =
  Format.fprintf ppf "static cost %a = %.2f units@," Gpusim.Cost.pp t.total t.estimate;
  List.iter
    (fun a ->
      Format.fprintf ppf "  [%2d] %-10s %a@," a.index a.class_ Gpusim.Cost.pp a.cost)
    t.per_instr
