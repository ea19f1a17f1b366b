open Linear_layout

(* {1 Per-pass certification}

   A pass is semantics-preserving iff every change it makes to the
   blackboard is justified: an in-place re-layout must be covered by a
   conversion request recording the move, and a discharged work item
   must either be a semantic no-op or be replaced by an equivalent
   decision (a remat, a store-layout commitment).  Everything is decided
   over the flattened F2 maps, so an unjustified change always comes
   with a minimal counterexample bit-vector (weight at most 1). *)

type snapshot = { layouts : Layout.t option array; pending : Pass.pending list }

type pass_cert = {
  pass : string;
  relayouts : int;  (** justified in-place layout changes *)
  discharged : int;  (** work items folded, remat-swapped or resolved *)
  refuted : int;  (** LL62x errors this pass triggered *)
}

(* Work items are tracked by the physical identity of their payload, not
   of the variant cell: a pass rebuilding its pending list with
   [List.filter_map] re-wraps the records it keeps (e.g.
   [backward_remat] returning [Some (Convert r)]), so only the inner
   record is stable across the pass.  Remats carry no payload record and
   are compared structurally — two remats of the same source at the same
   site are interchangeable. *)
let same_item a b =
  match (a, b) with
  | Pass.Convert r1, Pass.Convert r2 -> r1 == r2
  | Pass.Store_decision s1, Pass.Store_decision s2 -> s1 == s2
  | ( Pass.Remat { remat_at = a1; remat_src = s1 },
      Pass.Remat { remat_at = a2; remat_src = s2 } ) ->
      a1 = a2 && s1 = s2
  | _ -> false

let mem_item p l = List.exists (same_item p) l

let take_snapshot (st : Pass.state) =
  {
    layouts =
      Array.map (fun (ins : Program.instr) -> ins.Program.layout)
        (Program.instrs st.Pass.prog);
    pending = st.Pass.pending;
  }

let pp_witness ppf (h, bits) = F2.Bitvec.pp ~width:(max 1 bits) ppf h

(* Minimal-weight hardware point where the flattened maps of [a] and [b]
   disagree; [None] when the matrices are equal.  By linearity the
   witness is [0] when the shapes differ and the first differing basis
   vector otherwise. *)
let counterexample a b =
  let ma = Layout.to_matrix a and mb = Layout.to_matrix b in
  let n = F2.Bitmatrix.cols ma in
  if n <> F2.Bitmatrix.cols mb || F2.Bitmatrix.rows ma <> F2.Bitmatrix.rows mb then Some 0
  else
    let rec go j =
      if j >= n then None
      else if F2.Bitmatrix.column ma j <> F2.Bitmatrix.column mb j then Some (1 lsl j)
      else go (j + 1)
    in
    go 0

(* Added requests with source [i] form a rewrite system over layouts
   (src_layout -> dst); an in-place re-layout from [a] to [b] is
   justified iff [b] is reachable from [a] through it.  The closure
   matters: one operand consumed by two dots is re-layouted twice in a
   single forward walk, each step covered by its own request. *)
let reachable ~added ~src:i a b =
  let steps =
    List.filter_map
      (function
        | Pass.Convert (r : Pass.request) when r.Pass.src = i ->
            Some (r.Pass.src_layout, r.Pass.dst)
        | _ -> None)
      added
  in
  let rec close frontier seen =
    match frontier with
    | [] -> false
    | l :: rest ->
        if Layout.equal l b then true
        else
          let nexts =
            List.filter_map
              (fun (s, d) ->
                if Layout.equal s l && not (List.exists (Layout.equal d) seen) then
                  Some d
                else None)
              steps
          in
          close (nexts @ rest) (nexts @ seen)
  in
  close [ a ] [ a ]

let diff_layouts ~pass snap (st : Pass.state) ~added =
  let relayouts = ref 0 and diags = ref [] in
  Array.iteri
    (fun i (ins : Program.instr) ->
      match (snap.layouts.(i), ins.Program.layout) with
      | Some _, None ->
          diags :=
            Diagnostics.error ~code:"LL621" ~loc:(Diagnostics.Tir_instr i)
              "pass %s dropped the layout assignment of %%%d" pass i
            :: !diags
      | Some a, Some b when not (Layout.equal a b) ->
          if reachable ~added ~src:i a b then incr relayouts
          else begin
            match counterexample a b with
            | None ->
                (* Same flattened map: a pure relabeling of the logical
                   dims, semantically the identity. *)
                incr relayouts
            | Some h ->
                diags :=
                  Diagnostics.error ~code:"LL620" ~loc:(Diagnostics.Tir_instr i)
                    "pass %s changed the layout of %%%d without a recorded conversion: \
                     hardware point %a maps to different logical elements"
                    pass i pp_witness
                    (h, Layout.total_in_bits a)
                  :: !diags
          end
      | _ -> ())
    (Program.instrs st.Pass.prog);
  (!relayouts, List.rev !diags)

let diff_pending ~pass snap (st : Pass.state) ~added =
  let discharged = ref 0 and diags = ref [] in
  let refute ~loc fmt =
    Format.kasprintf
      (fun m -> diags := Diagnostics.error ~code:"LL622" ~loc "%s" m :: !diags)
      fmt
  in
  let final_layout i = (Program.instr st.Pass.prog i).Program.layout in
  List.iter
    (fun p ->
      if not (mem_item p st.Pass.pending) then
        match p with
        | Pass.Convert r ->
            let folded =
              (* [simplify]: structurally equal layouts need no code. *)
              Layout.equal r.Pass.src_layout r.Pass.dst
              || counterexample r.Pass.src_layout r.Pass.dst = None
            in
            let remat_swapped =
              List.exists
                (function
                  | Pass.Remat { remat_at; remat_src } ->
                      remat_at = r.Pass.at && remat_src = r.Pass.src
                  | _ -> false)
                added
            in
            if folded || remat_swapped then incr discharged
            else
              let h =
                Option.value ~default:0
                  (counterexample r.Pass.src_layout r.Pass.dst)
              in
              refute ~loc:(Diagnostics.Tir_instr r.Pass.at)
                "pass %s dropped the conversion request for %%%d without \
                 justification: hardware point %a still disagrees"
                pass r.Pass.src pp_witness
                (h, Layout.total_in_bits r.Pass.src_layout)
        | Pass.Store_decision sc -> (
            match final_layout sc.Pass.store_at with
            | Some l when Layout.equal l sc.Pass.store_src_layout ->
                (* Direct store through the producer's layout. *)
                incr discharged
            | Some l
              when Layout.equal l sc.Pass.store_anchor
                   && List.exists
                        (function
                          | Pass.Convert (r : Pass.request) ->
                              r.Pass.at = sc.Pass.store_at
                              && Layout.equal r.Pass.src_layout
                                   sc.Pass.store_src_layout
                              && Layout.equal r.Pass.dst sc.Pass.store_anchor
                          | _ -> false)
                        added ->
                (* Store through the coalesced anchor, conversion queued. *)
                incr discharged
            | _ ->
                refute ~loc:(Diagnostics.Tir_instr sc.Pass.store_at)
                  "pass %s resolved the store decision at %%%d to a layout that \
                   is neither the producer's nor the anchor with a queued \
                   conversion"
                  pass sc.Pass.store_at)
        | Pass.Remat { remat_at; remat_src } ->
            refute ~loc:(Diagnostics.Tir_instr remat_at)
              "pass %s dropped the rematerialization of %%%d at %%%d" pass remat_src
              remat_at)
    snap.pending;
  (!discharged, List.rev !diags)

let certify_pass ~pass snap (st : Pass.state) =
  let added =
    List.filter (fun p -> not (mem_item p snap.pending)) st.Pass.pending
  in
  let relayouts, d1 = diff_layouts ~pass snap st ~added in
  let discharged, d2 = diff_pending ~pass snap st ~added in
  let diags = d1 @ d2 in
  if Obs.enabled () then begin
    Obs.Metrics.incr "transval.passes.checked";
    if diags <> [] then
      Obs.Metrics.incr ~by:(List.length diags) "transval.passes.refuted"
  end;
  ({ pass; relayouts; discharged; refuted = List.length diags }, diags)

(* {1 The observer}

   A stateful observer pairing the two hooks: [before_pass] snapshots,
   [after_pass] diffs, accumulates certificates and appends refutation
   diagnostics to the state. *)

type observer = {
  mutable snap : snapshot option;
  mutable certs : pass_cert list;  (* reverse pass order *)
}

let observer () = { snap = None; certs = [] }
let before_pass obs : Pass_manager.hook = fun _ st -> obs.snap <- Some (take_snapshot st)

(* Runs inside the pass manager's attribution window, so the LL62x
   diagnostics appended here are tagged with the offending pass. *)
let after_pass obs : Pass_manager.hook =
 fun pass st ->
  match obs.snap with
  | None -> ()
  | Some snap ->
      obs.snap <- None;
      let cert, diags = certify_pass ~pass snap st in
      obs.certs <- cert :: obs.certs;
      if diags <> [] then st.Pass.diags <- st.Pass.diags @ diags

(* {1 Plan certification} *)

(* One {!Analysis.Transval} certificate per materialized plan, read
   from the plan's verdict ({!Analysis.Plan_verdict.cert}), with
   refutations rendered as LL65x diagnostics located at the conversion's
   instruction.  Legacy-mode conversions carry no plan ([plan = None])
   and are skipped — the padded shared-memory baseline is costed, never
   lowered. *)
let conversions machine (convs : Pass.conversion_info list) =
  let certs =
    List.filter_map
      (fun (c : Pass.conversion_info) ->
        match c.Pass.plan with
        | None -> None
        | Some plan -> Some (c.Pass.at, Analysis.Plan_verdict.cert machine plan))
      convs
  in
  let diags =
    List.concat_map
      (fun (at, cert) -> Analysis.Transval.diagnostics ~loc:(Diagnostics.Tir_instr at) cert)
      certs
  in
  (certs, diags)

(* Coverage: after [insert_conversions] every surviving request that
   still changes the layout must have been materialized as a conversion
   whose plan matches the request's snapshot layouts — a silently
   dropped request would leave the consumer reading data in the wrong
   distribution with no certificate ever looking at it. *)
let coverage (st : Pass.state) =
  List.filter_map
    (function
      | Pass.Convert (r : Pass.request) when not (Layout.equal r.Pass.src_layout r.Pass.dst) ->
          let materialized =
            List.exists
              (fun (c : Pass.conversion_info) ->
                c.Pass.at = r.Pass.at
                &&
                match c.Pass.plan with
                | Some p ->
                    Layout.equal p.Codegen.Conversion.src r.Pass.src_layout
                    && Layout.equal p.Codegen.Conversion.dst r.Pass.dst
                | None -> true)
              st.Pass.convs
          in
          if materialized then None
          else
            Some
              (Diagnostics.error ~code:"LL623" ~loc:(Diagnostics.Tir_instr r.Pass.at)
                 "conversion request for %%%d was never materialized: the consumer reads \
                  the value in an unconverted distribution"
                 r.Pass.src)
      | _ -> None)
    st.Pass.pending

let plans (st : Pass.state) =
  let certs, diags = conversions st.Pass.machine (List.rev st.Pass.convs) in
  (certs, diags @ coverage st)

(* {1 The driver} *)

type report = {
  mode : Pass.mode;
  result : Pass.result;
  pass_certs : pass_cert list;
  plan_certs : (Program.id * Analysis.Transval.cert) list;
  diags : Diagnostics.t list;
}

let cert_codes = [ "LL620"; "LL621"; "LL622"; "LL623"; "LL650"; "LL651"; "LL652" ]

let cert_errors r =
  List.filter
    (fun (d : Diagnostics.t) ->
      d.Diagnostics.severity = Diagnostics.Error && List.mem d.Diagnostics.code cert_codes)
    r.diags

let proved r = cert_errors r = []

let status r =
  if cert_errors r <> [] then "refuted"
  else match r.mode with Pass.Legacy_mode -> "skipped" | Pass.Linear -> "proved"

let run machine ~mode ?num_warps ?chooser prog =
  Obs.Span.with_ "certify"
    ~attrs:[ ("mode", match mode with Pass.Linear -> "linear" | _ -> "legacy") ]
    (fun () ->
      let st = Pass.init machine ~mode ?num_warps ?chooser prog in
      let obs = observer () in
      Pass_manager.exec
        (Pass_manager.config ~before_pass:(before_pass obs) ~after_pass:(after_pass obs)
           Passes.default)
        st;
      let plan_certs, plan_diags = plans st in
      {
        mode;
        result = Pass.result st;
        pass_certs = List.rev obs.certs;
        plan_certs;
        diags = st.Pass.diags @ plan_diags;
      })

let to_json ~kernel ~machine r =
  let e = Diagnostics.json_escape in
  let pass c =
    Printf.sprintf "{\"pass\":\"%s\",\"relayouts\":%d,\"discharged\":%d,\"refuted\":%d}"
      (e c.pass) c.relayouts c.discharged c.refuted
  in
  let plan (at, (c : Analysis.Transval.cert)) =
    Printf.sprintf
      "{\"at\":%d,\"mechanism\":\"%s\",\"method\":\"%s\",\"points\":%d,\"verdict\":\"%s\"}"
      at (e c.Analysis.Transval.mechanism)
      (Analysis.Transval.method_name c.Analysis.Transval.method_)
      c.Analysis.Transval.points
      (Analysis.Transval.verdict_name c.Analysis.Transval.verdict)
  in
  Printf.sprintf
    "{\"kernel\":\"%s\",\"machine\":\"%s\",\"mode\":\"%s\",\"status\":\"%s\",\"passes\":[%s],\"plans\":[%s],\"diagnostics\":%s}"
    (e kernel) (e machine)
    (match r.mode with Pass.Linear -> "linear" | Pass.Legacy_mode -> "legacy")
    (status r)
    (String.concat "," (List.map pass r.pass_certs))
    (String.concat "," (List.map plan r.plan_certs))
    (Diagnostics.to_json (cert_errors r))
