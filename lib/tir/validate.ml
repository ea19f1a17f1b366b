open Linear_layout

let program = Verifier.program

exception Invalid of Diagnostics.t list

let () =
  Printexc.register_printer (function
    | Invalid ds ->
        Some (Format.asprintf "layout validation failed:@.%a" Diagnostics.pp_list ds)
    | _ -> None)

let analyze machine prog ~result =
  Verifier.program prog
  @ Lint.passes machine prog ~result
  @ snd (Pass_certify.certify_conversions machine result.Engine.conversions)

(* A [Pass_manager] hook running the LL2xx–LL5xx lint sweep over the
   state as it stands, for per-pass analysis at any dump-after point
   (the lints tolerate partially assigned programs). *)
let lint_hook : Pass_manager.hook =
 fun _name st ->
  st.Pass.diags <-
    st.Pass.diags @ Lint.passes st.Pass.machine st.Pass.prog ~result:(Pass.result st)

let run_and_validate machine ~mode ?num_warps ?chooser ?(analyze = false) prog =
  (* Drive the pipeline directly so the analyze variant runs the
     verifier + lint sweep as the [analyze] pass, with its diagnostics
     attributed in the pipeline state.  The analyze variant also runs
     under the {!Certify} observer, so pass-level translation validation
     failures (LL62x) surface as validation errors. *)
  let st = Pass.init machine ~mode ?num_warps ?chooser prog in
  let passes =
    if analyze && mode = Pass.Linear then Passes.all else Passes.default
  in
  let config =
    if analyze then begin
      let obs = Certify.observer () in
      Pass_manager.config ~before_pass:(Certify.before_pass obs)
        ~after_pass:(Certify.after_pass obs) passes
    end
    else Pass_manager.config passes
  in
  let (_ : Pass_manager.report) = Pass_manager.run config st in
  let r = Pass.result st in
  match mode with
  | Engine.Legacy_mode ->
      (* The legacy baseline normalizes unsupported layouts in place
         (modelling its forced conversions), so the per-op relations are
         not observable on the final state; only linear assignments are
         verified. *)
      r
  | Engine.Linear -> (
      let diags = if analyze then st.Pass.diags else Verifier.program prog in
      match Diagnostics.errors diags with [] -> r | errors -> raise (Invalid errors))
