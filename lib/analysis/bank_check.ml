open Linear_layout

let memory_errors ~code ~plan_name mem =
  Check.memory mem |> Diagnostics.errors
  |> List.map (fun (d : Diagnostics.t) ->
         Diagnostics.error ~code ~loc:(Diagnostics.Plan plan_name) "memory layout: %s"
           d.Diagnostics.message)

let swizzle machine ~src ~dst ~byte_width (s : Codegen.Swizzle_opt.t) =
  let mem = s.Codegen.Swizzle_opt.mem in
  match memory_errors ~code:"LL304" ~plan_name:"swizzle" mem with
  | _ :: _ as errs -> errs
  | [] ->
      (* One 128-byte phase per wavefront is the conflict-free floor:
         [n] phases for an access of [2^vec_bits] elements. *)
      let ideal =
        max 1 (1 lsl s.Codegen.Swizzle_opt.vec_bits * byte_width / machine.Gpusim.Machine.bank_bytes)
      in
      let side name dist predicted =
        match
          Codegen.Swizzle_opt.wavefronts machine ~mem ~dist ~byte_width
            ~vec:s.Codegen.Swizzle_opt.vec
        with
        | exception Invalid_argument msg ->
            [
              Diagnostics.error ~code:"LL304" ~loc:(Diagnostics.Plan "swizzle")
                "%s side is not simulatable: %s" name msg;
            ]
        | total, insts ->
            if total <> insts * predicted then
              [
                Diagnostics.error ~code:"LL301" ~loc:(Diagnostics.Plan "swizzle")
                  "analyzer error on the %s side: Lemma 9.4 predicts %d wavefronts per \
                   instruction but the bank simulator measures %d over %d instructions"
                  name predicted (total / max 1 insts) insts;
              ]
            else if predicted > ideal then
              [
                Diagnostics.warning ~code:"LL302" ~loc:(Diagnostics.Plan "swizzle")
                  "%s side is certified at %d wavefronts per instruction but conflict-free \
                   would be %d: no swizzle of this layout pair can do better, yet the \
                   conversion pays %dx bank conflicts"
                  name predicted ideal (predicted / ideal);
              ]
            else []
      in
      side "store" src s.Codegen.Swizzle_opt.store_wavefronts
      @ side "load" dst s.Codegen.Swizzle_opt.load_wavefronts

let staging _machine (st : Codegen.Operand_staging.t) =
  memory_errors ~code:"LL303" ~plan_name:"operand staging" st.Codegen.Operand_staging.mem

let conversion machine (plan : Codegen.Conversion.plan) =
  match plan.Codegen.Conversion.mechanism with
  | Codegen.Conversion.Shared_memory s ->
      swizzle machine ~src:plan.Codegen.Conversion.src ~dst:plan.Codegen.Conversion.dst
        ~byte_width:plan.Codegen.Conversion.byte_width s
  | Codegen.Conversion.No_op | Codegen.Conversion.Register_permute
  | Codegen.Conversion.Warp_shuffle _ | Codegen.Conversion.Warp_shuffle_compressed _
  | Codegen.Conversion.Global_roundtrip ->
      []
