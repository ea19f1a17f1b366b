(* The conversion plans of the kernel suite: every kernel at its first
   size, on every machine, in both modes — the 216 rows of the pipeline
   golden.  Shared by the lowering digest golden and the certifier
   differential. *)

type row = {
  kernel : string;
  machine : Gpusim.Machine.t;
  mode : string;
  plans : Codegen.Conversion.plan list;
}

let rows () =
  List.concat_map
    (fun (machine : Gpusim.Machine.t) ->
      List.concat_map
        (fun (k : Tir.Kernels.kernel) ->
          List.map
            (fun (mode, mode_name) ->
              let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
              let r = Tir.Engine.run machine ~mode prog in
              {
                kernel = k.Tir.Kernels.name;
                machine;
                mode = mode_name;
                plans =
                  List.filter_map
                    (fun (c : Tir.Engine.conversion_info) -> c.Tir.Engine.plan)
                    r.Tir.Engine.conversions;
              })
            [ (Tir.Engine.Linear, "linear"); (Tir.Engine.Legacy_mode, "legacy") ])
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras

(* Rows beyond the suite, on GH200: the CTA-wide blocked pairs of
   {!Plan_support.cta_pairs}, as given and with one broadcast register
   bit grown on both sides, so every mechanism with a warp-level
   lowering — including the broadcast-compressed shuffle — is hit. *)
let pair_rows () =
  let open Linear_layout in
  let machine = Gpusim.Machine.gh200 in
  let grow l = Layout.resize_in l Dims.register (Layout.in_bits l Dims.register + 1) in
  List.concat
    (List.mapi
       (fun i (src, dst) ->
         List.map
           (fun (tag, src, dst) ->
             {
               kernel = Printf.sprintf "pair%d" i;
               machine;
               mode = tag;
               plans = [ Codegen.Conversion.plan machine ~src ~dst ~byte_width:4 ];
             })
           [ ("plain", src, dst); ("broadcast", grow src, grow dst) ])
       (Plan_support.cta_pairs ()))

(* Plans with a warp-level lowering: the guard {!Analysis.Transval.certify_plan}
   applies before calling {!Codegen.Lower.conversion}. *)
let lowerable = Codegen.Lower.lowerable
