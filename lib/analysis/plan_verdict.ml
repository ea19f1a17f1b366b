open Linear_layout

(* See plan_verdict.mli.  Each field is [None] until its first demand;
   a raised exception leaves it [None]. *)
type verdict = {
  mutable price : Gpusim.Cost.t option option;
  mutable errors : Diagnostics.t list option;
  mutable cert : Transval.cert option;
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
let field ~get ~set machine plan compute =
  let tbl = Domain.DLS.get verdicts in
  let v =
    match Verdicts.find_opt tbl (plan, machine) with
    | Some v -> v
    | None ->
        let v = { price = None; errors = None; cert = None } in
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

let price machine plan compute =
  field machine plan compute ~get:(fun v -> v.price) ~set:(fun v p -> v.price <- Some p)

let errors machine plan compute =
  field machine plan compute ~get:(fun v -> v.errors) ~set:(fun v e -> v.errors <- Some e)

let cert machine plan =
  field machine plan
    (fun () -> Transval.certify_plan machine plan)
    ~get:(fun v -> v.cert)
    ~set:(fun v c -> v.cert <- Some c)
