(* The correctness oracle, run outside the timed region once per
   distinct request.  A request fails on any of:
   - an ERR reply or an exception;
   - a non-empty [unsupported] list in linear mode;
   - a Transval certificate that is not [proved];
   - a divergence between [Static_cost.cost] and [Gpusim.Isa.run] on
     any lowered plan.
   The first failure is named on stderr. *)

type t = {
  plans : (string, string option) Hashtbl.t;  (** key id -> failure *)
  failed : (string, string) Hashtbl.t;  (** request id -> first reason *)
  mutable checked : int;
  mutable first : (string * string) option;
}

let create () = { plans = Hashtbl.create 128; failed = Hashtbl.create 16; checked = 0; first = None }

let fail o ~id reason =
  if not (Hashtbl.mem o.failed id) then begin
    Hashtbl.add o.failed id reason;
    if o.first = None then begin
      o.first <- Some (id, reason);
      Util.log "FAILED %s: %s" id reason
    end
  end

let proved (c : Analysis.Transval.cert) =
  match c.Analysis.Transval.verdict with Analysis.Transval.Proved -> true | _ -> false

(* Static pricing against the interpreter on a lowered stream. *)
let static_dynamic m (program, (slots : Codegen.Lower.slot_map)) =
  match Analysis.Static_cost.differential m ~slots:slots.Codegen.Lower.total_slots program with
  | [] -> None
  | d :: _ -> Some (Format.asprintf "static cost diverges from Isa.run: %a" Linear_layout.Diagnostics.pp d)

let not_proved (c : Analysis.Transval.cert) =
  if proved c then None else Some ("certificate " ^ Analysis.Transval.verdict_name c.Analysis.Transval.verdict)

(* The plan lowered once, behind [Transval.certify_plan]'s own guard:
   the symbolic check and the static/dynamic check share the stream.
   Plans without a warp-level lowering are certified algebraically and
   have no stream to price. *)
let check_lowered ?cert m (plan : Codegen.Conversion.plan) =
  let lowered = Analysis.Static_cost.lower_plan m plan in
  let verdict =
    match (cert, lowered) with
    | Some ok, _ -> if ok then None else Some "certificate not proved"
    | None, None -> not_proved (Analysis.Transval.certify_plan m plan)
    | None, Some (program, map) ->
        not_proved
          (Analysis.Transval.certify_isa ~src:plan.Codegen.Conversion.src ~dst:plan.Codegen.Conversion.dst ~map
             program)
  in
  match (verdict, lowered) with None, Some l -> static_dynamic m l | _ -> verdict

let key_id m (plan : Codegen.Conversion.plan) =
  Printf.sprintf "%s|%s|%s|%d" m.Gpusim.Machine.name
    (Linear_layout.Parse.to_string plan.Codegen.Conversion.src)
    (Linear_layout.Parse.to_string plan.Codegen.Conversion.dst)
    plan.Codegen.Conversion.byte_width

(* [cert] is a certificate the workload already holds for the plan (a
   [Certify.run] report or a PLAN reply); otherwise one is computed. *)
let check_plan o ?cert m plan =
  let id = key_id m plan in
  match Hashtbl.find_opt o.plans id with
  | Some r -> r
  | None ->
      let r = check_lowered ?cert m plan in
      Hashtbl.add o.plans id r;
      r

let check_result o ~id m (r : Tir.Engine.result) =
  o.checked <- o.checked + 1;
  if r.Tir.Engine.unsupported <> [] then
    fail o ~id ("unsupported: " ^ String.concat ", " r.Tir.Engine.unsupported)
  else
    List.iter
      (fun (c : Tir.Engine.conversion_info) ->
        match c.Tir.Engine.plan with
        | None -> ()
        | Some plan -> (
            match check_plan o m plan with None -> () | Some why -> fail o ~id why))
      r.Tir.Engine.conversions

(* A [Certify.run] report: its own plan certificates stand in for the
   oracle's, then the static/dynamic check runs on each plan. *)
let check_report o ~id m (rep : Tir.Certify.report) =
  o.checked <- o.checked + 1;
  let result = rep.Tir.Certify.result in
  if not (Tir.Certify.proved rep) then fail o ~id ("certify status " ^ Tir.Certify.status rep)
  else if result.Tir.Engine.unsupported <> [] then fail o ~id "unsupported non-empty"
  else
    (* One certificate per planned conversion, in conversion order. *)
    let plans = List.filter_map (fun (c : Tir.Engine.conversion_info) -> c.Tir.Engine.plan) result.Tir.Engine.conversions in
    let certs = List.map snd rep.Tir.Certify.plan_certs in
    if List.length plans <> List.length certs then fail o ~id "plan certificates missing"
    else
      List.iter2
        (fun plan cert ->
          match check_plan o ~cert:(proved cert) m plan with None -> () | Some why -> fail o ~id why)
        plans certs

let failed_count o = Hashtbl.length o.failed
