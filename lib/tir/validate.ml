open Linear_layout

exception Invalid of Diagnostics.t list

let () =
  Printexc.register_printer (function
    | Invalid ds ->
        Some (Format.asprintf "layout validation failed:@.%a" Diagnostics.pp_list ds)
    | _ -> None)

let analyze machine prog ~result =
  Verifier.program prog
  @ Lint.passes machine prog ~result
  @ snd (Certify.conversions machine result.Engine.conversions)

(* A [Pass_manager] hook running the LL2xx–LL5xx lint sweep over the
   state as it stands, for per-pass analysis at any point of the
   pipeline (the lints tolerate partially assigned programs). *)
let lint_hook : Pass_manager.hook =
 fun _name st ->
  st.Pass.diags <-
    st.Pass.diags @ Lint.passes st.Pass.machine st.Pass.prog ~result:(Pass.result st)
