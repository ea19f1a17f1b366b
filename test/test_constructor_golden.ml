(* Golden digests of the layout constructors over every configuration
   the kernel suite builds.  One row per kernel x machine holds the
   number of layouts rendered and an MD5 digest over their
   [Layout.to_string] renderings: for each num_warps the autotuner tries
   and each problem size, [Pass_util.default_blocked] and
   [Pass_util.anchor_candidates] on every distinct (shape, dtype), and
   [Pass_util.dot_layouts] plus every [Mma] distribution on every
   [Dot].  A final block pins every [Mma] tile constructor per
   parameter.  Construction strategy may change; the layouts may not.

   Regenerate after an intentional layout change with

     dune exec test/test_constructor_golden.exe -- regen *)

open Linear_layout

let render l = Layout.to_string l

(* A constructor that rejects its arguments contributes its message, so
   the digest also pins where each constructor refuses. *)
let guard f = match f () with l -> render l | exception Invalid_argument msg -> "invalid " ^ msg

let mma_renders ~num_warps ~m ~n ~k ~a_bits ~b_bits =
  let warps = [| num_warps; 1 |] in
  let out_tiles =
    [ None; Some (Mma.mfma_output_tile ~m:16); Some (Mma.xmx_output_tile ()) ]
  in
  [
    (fun () -> Mma.output ~bitwidth:32 ~warps ~shape:[| m; n |] ());
    (fun () -> Mma.wgmma_output ~bitwidth:32 ~warp_groups:warps ~shape:[| m; n |] ());
    (fun () -> Mma.mfma_output ~m:16 ~warps ~shape:[| m; n |] ());
    (fun () -> Mma.mfma_output ~m:32 ~warps ~shape:[| m; n |] ());
    (fun () -> Mma.xmx_output ~warps ~shape:[| m; n |] ());
  ]
  @ List.concat_map
      (fun out_tile ->
        [
          (fun () -> Mma.operand ?out_tile ~idx:0 ~bitwidth:a_bits ~warps ~shape:[| m; k |] ());
          (fun () -> Mma.operand ?out_tile ~idx:1 ~bitwidth:b_bits ~warps ~shape:[| k; n |] ());
        ])
      out_tiles
  |> List.map guard

let kernel_line (machine : Gpusim.Machine.t) (k : Tir.Kernels.kernel) =
  let parts = ref [] in
  let emit s = parts := s :: !parts in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun num_warps ->
      List.iter
        (fun size ->
          let prog = k.Tir.Kernels.build ~size in
          Array.iter
            (fun (ins : Tir.Program.instr) ->
              let shape = ins.Tir.Program.shape and dtype = ins.Tir.Program.dtype in
              if not (Hashtbl.mem seen (num_warps, shape, dtype)) then begin
                Hashtbl.add seen (num_warps, shape, dtype) ();
                let default = Tir.Pass_util.default_blocked machine ~num_warps ~shape ~dtype in
                emit (render default);
                let cands, pruned =
                  Tir.Pass_util.anchor_candidates machine ~num_warps ~shape ~dtype
                in
                List.iter (fun l -> emit (render l)) cands;
                emit (string_of_int pruned)
              end;
              match ins.Tir.Program.node with
              | Tir.Program.Dot { a; b } ->
                  let sa = (Tir.Program.instr prog a).Tir.Program.shape in
                  let sb = (Tir.Program.instr prog b).Tir.Program.shape in
                  let m = sa.(0) and k = sa.(1) and n = sb.(1) in
                  let a_dtype = (Tir.Program.instr prog a).Tir.Program.dtype in
                  let b_dtype = (Tir.Program.instr prog b).Tir.Program.dtype in
                  let a_bits = Tir.Pass_util.mma_bitwidth a_dtype in
                  let b_bits = Tir.Pass_util.mma_bitwidth b_dtype in
                  let _fits, out, la, lb =
                    Tir.Pass_util.dot_layouts machine ~num_warps ~m ~n ~k ~a_dtype ~b_dtype
                  in
                  List.iter (fun l -> emit (render l)) [ out; la; lb ];
                  List.iter emit (mma_renders ~num_warps ~m ~n ~k ~a_bits ~b_bits)
              | _ -> ())
            (Tir.Program.instrs prog))
        k.Tir.Kernels.sizes)
    [ 1; 2; 4; 8 ];
  let parts = List.rev !parts in
  Printf.sprintf "%s|%s|%d|%s" k.Tir.Kernels.name machine.Gpusim.Machine.name
    (List.length parts)
    (Digest.to_hex (Digest.string (String.concat "\n" parts)))

let tile_lines () =
  let line name f = Printf.sprintf "%s|%s" name (Digest.to_hex (Digest.string (guard f))) in
  List.concat_map
    (fun bitwidth ->
      let b = string_of_int bitwidth in
      [
        line ("output_tile " ^ b) (fun () -> Mma.output_tile ~bitwidth);
        line ("operand_tile 0 " ^ b) (fun () -> Mma.operand_tile ~idx:0 ~bitwidth);
        line ("operand_tile 1 " ^ b) (fun () -> Mma.operand_tile ~idx:1 ~bitwidth);
        line ("wgmma_output_tile " ^ b) (fun () -> Mma.wgmma_output_tile ~bitwidth);
      ])
    [ 1; 2; 3; 4; 8; 16; 32; 64 ]
  @ [
      line "operand_tile 2 16" (fun () -> Mma.operand_tile ~idx:2 ~bitwidth:16);
      line "mfma_output_tile 16" (fun () -> Mma.mfma_output_tile ~m:16);
      line "mfma_output_tile 32" (fun () -> Mma.mfma_output_tile ~m:32);
      line "mfma_output_tile 8" (fun () -> Mma.mfma_output_tile ~m:8);
      line "xmx_output_tile" (fun () -> Mma.xmx_output_tile ());
    ]

let lines () =
  List.concat_map
    (fun machine -> List.map (kernel_line machine) Tir.Kernels.all)
    Gpusim.Machine.all_with_extras
  @ tile_lines ()

let golden = {golden|
gemm|RTX4090|364|e094da1f9f4c94b50bed3b5ddd088622
bf16xint16_gemm|RTX4090|364|e094da1f9f4c94b50bed3b5ddd088622
int4_gemm|RTX4090|364|f8ab41bb1c20794f47d3bd56224585f2
fp8_gemm|RTX4090|364|fa5bf2921ab4bef393af94df259caac9
grouped_gemm|RTX4090|508|88f5ac96b832284bba8e13d2c51a94fe
addmm|RTX4090|284|4734e2045718cd9f876f4c046ae7ab90
bmm|RTX4090|264|566ebd4fea100dd783b154429c0a0987
template_attention|RTX4090|574|1b8f64e2e9080a2b2c78642ec84c6137
flex_attention|RTX4090|574|1b8f64e2e9080a2b2c78642ec84c6137
attention_bwd|RTX4090|626|c0393035e3b780049a21ed7b79a2e912
welford|RTX4090|96|b52a71dca55e232547a62d34e035d87a
gather_gemv|RTX4090|48|17ee7a543b0d70e044150538ca8f4851
rope|RTX4090|60|a1af38527aa9e50a01e4561928514efb
embedding|RTX4090|40|66219129e3397979a9fcd31b6d2771a3
softmax|RTX4090|96|b52a71dca55e232547a62d34e035d87a
layer_norm|RTX4090|96|b52a71dca55e232547a62d34e035d87a
rms_norm|RTX4090|96|b52a71dca55e232547a62d34e035d87a
cross_entropy|RTX4090|36|0509951ce49410a90fcf30f57b396717
fused_linear_cross_entropy|RTX4090|188|ea335da9439c60c8cf1c5eb3154b8745
cumsum|RTX4090|80|57d949daf5ef9d63795e02b319d804f6
jagged_sum|RTX4090|76|6fe22efab9f8d3cc5705eadda1d9477e
softmax_bwd|RTX4090|76|6fe22efab9f8d3cc5705eadda1d9477e
jagged_mean|RTX4090|136|99b9a617b5974b3746dfb724509a8320
low_mem_dropout|RTX4090|160|ae63c89b9e6037d643cd5853775bac5b
swiglu|RTX4090|160|ae63c89b9e6037d643cd5853775bac5b
geglu|RTX4090|160|ae63c89b9e6037d643cd5853775bac5b
vector_add|RTX4090|160|ae63c89b9e6037d643cd5853775bac5b
gemm|GH200|364|e094da1f9f4c94b50bed3b5ddd088622
bf16xint16_gemm|GH200|364|e094da1f9f4c94b50bed3b5ddd088622
int4_gemm|GH200|364|f8ab41bb1c20794f47d3bd56224585f2
fp8_gemm|GH200|364|fa5bf2921ab4bef393af94df259caac9
grouped_gemm|GH200|508|88f5ac96b832284bba8e13d2c51a94fe
addmm|GH200|284|4734e2045718cd9f876f4c046ae7ab90
bmm|GH200|264|566ebd4fea100dd783b154429c0a0987
template_attention|GH200|574|1b8f64e2e9080a2b2c78642ec84c6137
flex_attention|GH200|574|1b8f64e2e9080a2b2c78642ec84c6137
attention_bwd|GH200|626|c0393035e3b780049a21ed7b79a2e912
welford|GH200|96|b52a71dca55e232547a62d34e035d87a
gather_gemv|GH200|48|17ee7a543b0d70e044150538ca8f4851
rope|GH200|60|a1af38527aa9e50a01e4561928514efb
embedding|GH200|40|66219129e3397979a9fcd31b6d2771a3
softmax|GH200|96|b52a71dca55e232547a62d34e035d87a
layer_norm|GH200|96|b52a71dca55e232547a62d34e035d87a
rms_norm|GH200|96|b52a71dca55e232547a62d34e035d87a
cross_entropy|GH200|36|0509951ce49410a90fcf30f57b396717
fused_linear_cross_entropy|GH200|188|ea335da9439c60c8cf1c5eb3154b8745
cumsum|GH200|80|57d949daf5ef9d63795e02b319d804f6
jagged_sum|GH200|76|6fe22efab9f8d3cc5705eadda1d9477e
softmax_bwd|GH200|76|6fe22efab9f8d3cc5705eadda1d9477e
jagged_mean|GH200|136|99b9a617b5974b3746dfb724509a8320
low_mem_dropout|GH200|160|ae63c89b9e6037d643cd5853775bac5b
swiglu|GH200|160|ae63c89b9e6037d643cd5853775bac5b
geglu|GH200|160|ae63c89b9e6037d643cd5853775bac5b
vector_add|GH200|160|ae63c89b9e6037d643cd5853775bac5b
gemm|MI250|364|300cd08b6e208158bc4bde714ebb0e71
bf16xint16_gemm|MI250|364|300cd08b6e208158bc4bde714ebb0e71
int4_gemm|MI250|364|11532bc735c9962bdb43103188b484e1
fp8_gemm|MI250|364|759ec31efa33d6c22719c68376779aa5
grouped_gemm|MI250|508|4624c5183440f6cef828f225e7ade731
addmm|MI250|284|cc977c2055da1d8655803f57efbb751e
bmm|MI250|264|e0fe2d276b881e714754b046205847bc
template_attention|MI250|572|a2dff0c6f33f04096dc908b9b1913570
flex_attention|MI250|572|a2dff0c6f33f04096dc908b9b1913570
attention_bwd|MI250|624|0174dca060ac873e8cd07a30f520b62c
welford|MI250|96|47c1034a67f3da78e4484d9abda90a2f
gather_gemv|MI250|48|edbca60e3ede4441f49d4a553f04b58c
rope|MI250|60|851d897eb071f8c0c5daf2cad1c98c91
embedding|MI250|40|7778ba2fd857e2bd419fc6d804625900
softmax|MI250|96|47c1034a67f3da78e4484d9abda90a2f
layer_norm|MI250|96|47c1034a67f3da78e4484d9abda90a2f
rms_norm|MI250|96|47c1034a67f3da78e4484d9abda90a2f
cross_entropy|MI250|36|0dd6b0f34646ec458dd0c099f9ae85b9
fused_linear_cross_entropy|MI250|188|63b8e1b0a55aea639d9620b2b9011011
cumsum|MI250|80|497fc7e86ee3090f246b1d453b9bd829
jagged_sum|MI250|76|0ea4c799b44a1008182c8cc404443581
softmax_bwd|MI250|76|0ea4c799b44a1008182c8cc404443581
jagged_mean|MI250|136|bfd4e9b3188f49a66c2f3f8a29b86635
low_mem_dropout|MI250|160|25793714bf2689a8ee5e33af1cad9bff
swiglu|MI250|160|25793714bf2689a8ee5e33af1cad9bff
geglu|MI250|160|25793714bf2689a8ee5e33af1cad9bff
vector_add|MI250|160|25793714bf2689a8ee5e33af1cad9bff
gemm|PVC|364|ba67971e24e99051cbc4126c950ee2bb
bf16xint16_gemm|PVC|364|ba67971e24e99051cbc4126c950ee2bb
int4_gemm|PVC|364|7620f4a3907b9d3c4b0c44152615961e
fp8_gemm|PVC|364|e5914aac328b4248e6a16cef1aa0e507
grouped_gemm|PVC|508|2d279df0d1704bb3b7042bb2883a63dd
addmm|PVC|284|7bb40f5ac2f16d5af8731eb0fdf7a280
bmm|PVC|264|cf7178767b0007b03e3e502cec340f39
template_attention|PVC|578|3f0e7f248b5355bce26a084d985927b2
flex_attention|PVC|578|3f0e7f248b5355bce26a084d985927b2
attention_bwd|PVC|630|4599a803380c79e6a54a9a948cea0bfc
welford|PVC|98|58abd4af182a1994c6984ad85841a098
gather_gemv|PVC|48|b2bf53c40d9fd7199902fce79d95441d
rope|PVC|60|d2ed0d3007fdb2bc7b0caff1c5bd6823
embedding|PVC|40|13efe0cb2efe31482145def3d028e4df
softmax|PVC|98|58abd4af182a1994c6984ad85841a098
layer_norm|PVC|98|58abd4af182a1994c6984ad85841a098
rms_norm|PVC|98|58abd4af182a1994c6984ad85841a098
cross_entropy|PVC|38|605f35a1d8f96f5c8a4ac9c4ed241c9f
fused_linear_cross_entropy|PVC|190|dbc3f2cb11d085b8909665ce1e1153ca
cumsum|PVC|80|a726150ead088b702fa4902b4c48359b
jagged_sum|PVC|78|4ecb109f69433ce0f29833d79b8e9b1e
softmax_bwd|PVC|78|4ecb109f69433ce0f29833d79b8e9b1e
jagged_mean|PVC|136|33eca7fabed01f540c9d25bebb58c6f8
low_mem_dropout|PVC|160|afb57a392663cc7cde9bee37f2098f11
swiglu|PVC|160|afb57a392663cc7cde9bee37f2098f11
geglu|PVC|160|afb57a392663cc7cde9bee37f2098f11
vector_add|PVC|160|afb57a392663cc7cde9bee37f2098f11
output_tile 1|b170299681cca0ba447d9ec3dd885c0b
operand_tile 0 1|b170299681cca0ba447d9ec3dd885c0b
operand_tile 1 1|215fa7247a5c8d911e80798e2d00df19
wgmma_output_tile 1|2ac6076bc8d07054758fbc03f60c929f
output_tile 2|c11df953500aeefbffbb54089fec7d28
operand_tile 0 2|c11df953500aeefbffbb54089fec7d28
operand_tile 1 2|c10c22b0100b7633a329eb1c67ee9ef8
wgmma_output_tile 2|c49890d57a46752ef7611e2031a9885b
output_tile 3|5051769511ac06474e0f5f5fc0623157
operand_tile 0 3|5051769511ac06474e0f5f5fc0623157
operand_tile 1 3|5051769511ac06474e0f5f5fc0623157
wgmma_output_tile 3|5051769511ac06474e0f5f5fc0623157
output_tile 4|3e52a3936d2f47039366c0f6955ffa01
operand_tile 0 4|3e52a3936d2f47039366c0f6955ffa01
operand_tile 1 4|ecd661bdfbead77d5116d64818fae6aa
wgmma_output_tile 4|92cf32cf3997b83c97aac8b3c4099e3c
output_tile 8|8c238ad6e60077112e3ead522df2737b
operand_tile 0 8|8c238ad6e60077112e3ead522df2737b
operand_tile 1 8|aa1d2d18220206b941d9abbd4f668a3f
wgmma_output_tile 8|818470edbd837ed59a61d98ff4150c24
output_tile 16|5b032fd230aa760f2cefd9e6909bc4d4
operand_tile 0 16|5b032fd230aa760f2cefd9e6909bc4d4
operand_tile 1 16|385965b83fc45166a7f8c17ef0a5b4b6
wgmma_output_tile 16|8d1e1d563bd66eac3c16e6002a89e2f6
output_tile 32|198444e8be45b0aec74cdc56622c849c
operand_tile 0 32|198444e8be45b0aec74cdc56622c849c
operand_tile 1 32|f30bddb2cd103602a497384ff0cfec06
wgmma_output_tile 32|026b3036964bce6141d616bd9aee6f9c
output_tile 64|5051769511ac06474e0f5f5fc0623157
operand_tile 0 64|5051769511ac06474e0f5f5fc0623157
operand_tile 1 64|5051769511ac06474e0f5f5fc0623157
wgmma_output_tile 64|5051769511ac06474e0f5f5fc0623157
operand_tile 2 16|65a3d221cbc977bdd92f5d07681c537c
mfma_output_tile 16|49b5112a8d834d819d68e59774d557bf
mfma_output_tile 32|7815c335a6987caa3b1053d73f9ed52b
mfma_output_tile 8|66ad3865dbae2e54dbf76c1123bc16ed
xmx_output_tile|1bc322c208e126ad516100d1274d31f2
|golden}

let test_golden () =
  let expected =
    String.split_on_char '\n' golden |> List.filter (fun l -> String.trim l <> "")
  in
  let actual = lines () in
  Alcotest.(check int) "rows" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "constructor digests" e a) expected actual

let () =
  if Array.mem "regen" Sys.argv then List.iter print_endline (lines ())
  else
    Alcotest.run "constructor_golden"
      [ ("golden", [ Alcotest.test_case "layout digests vs reference" `Quick test_golden ]) ]
