(* Golden digests of the per-instruction lint sweep
   ({!Tir.Lint.instruction_passes}: the LL4xx coalescing and LL5xx
   broadcast lints) over the kernel suite — every kernel at its first
   size, on every machine, in both modes.  Each row holds the number of
   LL401 and LL402 warnings, the total number of diagnostics and an MD5
   digest of their rendered text (codes, locations and messages,
   sector counts included).  The closed-form sector count behind LL402
   must reproduce the enumerating audit it replaced byte for byte.

   Regenerate after an intentional lint change with

     dune exec test/test_lint_golden.exe -- regen *)

open Linear_layout

let modes = [ (Tir.Engine.Linear, "linear"); (Tir.Engine.Legacy_mode, "legacy") ]

let count code ds =
  List.length (List.filter (fun (d : Diagnostics.t) -> d.Diagnostics.code = code) ds)

let lines () =
  List.concat_map
    (fun (machine : Gpusim.Machine.t) ->
      List.concat_map
        (fun (k : Tir.Kernels.kernel) ->
          List.map
            (fun (mode, mode_name) ->
              let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
              ignore (Tir.Engine.run machine ~mode prog);
              let ds = Tir.Lint.instruction_passes machine prog in
              let rendered = List.map (Format.asprintf "%a" Diagnostics.pp) ds in
              Printf.sprintf "%s|%s|%s|%d %d %d|%s" k.Tir.Kernels.name
                machine.Gpusim.Machine.name mode_name (count "LL401" ds) (count "LL402" ds)
                (List.length ds)
                (Digest.to_hex (Digest.string (String.concat "\n" rendered))))
            modes)
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras

let golden = {golden|
gemm|RTX4090|linear|2 2 4|19f4d9e91fc421072f4ae1001be4292b
gemm|RTX4090|legacy|2 2 4|19f4d9e91fc421072f4ae1001be4292b
bf16xint16_gemm|RTX4090|linear|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
bf16xint16_gemm|RTX4090|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
int4_gemm|RTX4090|linear|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
int4_gemm|RTX4090|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
fp8_gemm|RTX4090|linear|2 2 4|26e1194eb25d56aa9a13dac6b5acd363
fp8_gemm|RTX4090|legacy|2 2 4|26e1194eb25d56aa9a13dac6b5acd363
grouped_gemm|RTX4090|linear|4 4 8|4c442e1d54335125538dbfd6b8bd81ac
grouped_gemm|RTX4090|legacy|4 4 8|4c442e1d54335125538dbfd6b8bd81ac
addmm|RTX4090|linear|2 2 4|abe27e98efc4f406fc7a01f641087174
addmm|RTX4090|legacy|2 2 4|abe27e98efc4f406fc7a01f641087174
bmm|RTX4090|linear|2 2 4|ef881d6a693f799bdb08fae0e6f8cb04
bmm|RTX4090|legacy|2 2 4|ef881d6a693f799bdb08fae0e6f8cb04
template_attention|RTX4090|linear|3 3 6|1d25285fc3883763a1ebd292b8e30b18
template_attention|RTX4090|legacy|3 3 6|1d25285fc3883763a1ebd292b8e30b18
flex_attention|RTX4090|linear|3 3 6|b0318f300e3cafd0c3e218a482f7983b
flex_attention|RTX4090|legacy|3 3 6|b0318f300e3cafd0c3e218a482f7983b
attention_bwd|RTX4090|linear|3 3 6|ee7dea6b38a9fd9911259972541f7570
attention_bwd|RTX4090|legacy|3 3 6|ee7dea6b38a9fd9911259972541f7570
welford|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
welford|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|RTX4090|linear|3 2 5|0db9d6c4ee7f31e3397bf0ea1e057940
fused_linear_cross_entropy|RTX4090|legacy|2 2 4|577794c51e67422246045a9055e4700a
cumsum|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|RTX4090|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|RTX4090|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|GH200|linear|2 2 4|19f4d9e91fc421072f4ae1001be4292b
gemm|GH200|legacy|2 2 4|19f4d9e91fc421072f4ae1001be4292b
bf16xint16_gemm|GH200|linear|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
bf16xint16_gemm|GH200|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
int4_gemm|GH200|linear|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
int4_gemm|GH200|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
fp8_gemm|GH200|linear|2 2 4|26e1194eb25d56aa9a13dac6b5acd363
fp8_gemm|GH200|legacy|2 2 4|26e1194eb25d56aa9a13dac6b5acd363
grouped_gemm|GH200|linear|4 4 8|4c442e1d54335125538dbfd6b8bd81ac
grouped_gemm|GH200|legacy|4 4 8|4c442e1d54335125538dbfd6b8bd81ac
addmm|GH200|linear|2 2 4|abe27e98efc4f406fc7a01f641087174
addmm|GH200|legacy|2 2 4|abe27e98efc4f406fc7a01f641087174
bmm|GH200|linear|2 2 4|ef881d6a693f799bdb08fae0e6f8cb04
bmm|GH200|legacy|2 2 4|ef881d6a693f799bdb08fae0e6f8cb04
template_attention|GH200|linear|3 3 6|1d25285fc3883763a1ebd292b8e30b18
template_attention|GH200|legacy|3 3 6|1d25285fc3883763a1ebd292b8e30b18
flex_attention|GH200|linear|3 3 6|b0318f300e3cafd0c3e218a482f7983b
flex_attention|GH200|legacy|3 3 6|b0318f300e3cafd0c3e218a482f7983b
attention_bwd|GH200|linear|3 3 6|ee7dea6b38a9fd9911259972541f7570
attention_bwd|GH200|legacy|3 3 6|ee7dea6b38a9fd9911259972541f7570
welford|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
welford|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|GH200|linear|3 2 5|0db9d6c4ee7f31e3397bf0ea1e057940
fused_linear_cross_entropy|GH200|legacy|2 2 4|577794c51e67422246045a9055e4700a
cumsum|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|GH200|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|GH200|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|MI250|linear|3 2 5|de00b81f19da19ee6b75c745134ec7c6
gemm|MI250|legacy|2 2 4|19f4d9e91fc421072f4ae1001be4292b
bf16xint16_gemm|MI250|linear|2 1 3|70d31813a0d0dfab187ed8586d70a79b
bf16xint16_gemm|MI250|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
int4_gemm|MI250|linear|2 1 3|2f35963d64d1c21a559a4f3070ef481a
int4_gemm|MI250|legacy|1 1 2|a88d94c7a4a6eb5a4da44cc6d9ab6286
fp8_gemm|MI250|linear|3 2 5|46538d0275ab099840a2b23d1f033e1a
fp8_gemm|MI250|legacy|2 2 4|26e1194eb25d56aa9a13dac6b5acd363
grouped_gemm|MI250|linear|6 4 10|b8333149ef5d0d738948e2ecc240f38a
grouped_gemm|MI250|legacy|4 4 8|4c442e1d54335125538dbfd6b8bd81ac
addmm|MI250|linear|3 2 5|c1510084f7bd795957b6172024ad601e
addmm|MI250|legacy|2 2 4|abe27e98efc4f406fc7a01f641087174
bmm|MI250|linear|3 2 5|be755552c7a2f586e0856ff386e85778
bmm|MI250|legacy|2 2 4|ef881d6a693f799bdb08fae0e6f8cb04
template_attention|MI250|linear|4 3 7|94d4651ec80acaf9ebc384be6368201c
template_attention|MI250|legacy|3 3 6|1d25285fc3883763a1ebd292b8e30b18
flex_attention|MI250|linear|4 3 7|070487e64f93499658e87c850753d5ea
flex_attention|MI250|legacy|3 3 6|b0318f300e3cafd0c3e218a482f7983b
attention_bwd|MI250|linear|3 3 6|ee7dea6b38a9fd9911259972541f7570
attention_bwd|MI250|legacy|3 3 6|ee7dea6b38a9fd9911259972541f7570
welford|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
welford|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|MI250|linear|2 2 4|577794c51e67422246045a9055e4700a
fused_linear_cross_entropy|MI250|legacy|2 2 4|577794c51e67422246045a9055e4700a
cumsum|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|MI250|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|MI250|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|PVC|linear|3 2 5|6e43baa7a4dd32eebefc759550f977bb
gemm|PVC|legacy|2 2 4|99104ef59c597c20cba9015587b248e8
bf16xint16_gemm|PVC|linear|2 1 3|d60e05bdafe41c38ece16ad0d7944bd6
bf16xint16_gemm|PVC|legacy|1 1 2|3d89df00acdc9e22b782f72743bd908f
int4_gemm|PVC|linear|2 1 3|54d3225c09d68d8f215fe63b355d9896
int4_gemm|PVC|legacy|1 1 2|3d89df00acdc9e22b782f72743bd908f
fp8_gemm|PVC|linear|3 2 5|844b72b81c2827a571ba54a6f49d4136
fp8_gemm|PVC|legacy|2 2 4|3bff1ff82ab1f7f9b6b89885fc20da3a
grouped_gemm|PVC|linear|6 4 10|abed077c4e4087a3a0bf366482fac003
grouped_gemm|PVC|legacy|4 4 8|36f3223aadd31ae74a2eea4e264ac7f6
addmm|PVC|linear|3 2 5|8deb78310553943e3364164e2f0a1982
addmm|PVC|legacy|2 2 4|55f384d9964ccb734a4ab30e4fa92223
bmm|PVC|linear|3 2 5|d1cc81109a37e0f16ad1f7f72dec68f0
bmm|PVC|legacy|2 2 4|607946599adbf62d7509e72e992dd20c
template_attention|PVC|linear|4 3 7|3d0efa00c8524116f00dd9aff0bd8bef
template_attention|PVC|legacy|3 3 6|a7489c48c6b006a0cff4df34653fd026
flex_attention|PVC|linear|4 3 7|36ca75663d346899431bc29604844961
flex_attention|PVC|legacy|3 3 6|87dacaf6797a64ee6204e4d57bc645d6
attention_bwd|PVC|linear|4 3 7|2428598e8b19dae5e0ffdc91a2146b38
attention_bwd|PVC|legacy|3 3 6|57649ad98c85dee440e16c25bf11f4da
welford|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
welford|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rope|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|PVC|linear|2 2 4|577794c51e67422246045a9055e4700a
fused_linear_cross_entropy|PVC|legacy|2 2 4|577794c51e67422246045a9055e4700a
cumsum|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|PVC|linear|0 0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|PVC|legacy|0 0 0|d41d8cd98f00b204e9800998ecf8427e
|golden}

let test_golden () =
  let expected =
    String.split_on_char '\n' golden |> List.filter (fun l -> String.trim l <> "")
  in
  let actual = lines () in
  Alcotest.(check int) "table covers kernels x machines x modes" (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "lint diagnostics" e a) expected actual

let () =
  if Array.mem "regen" Sys.argv then List.iter print_endline (lines ())
  else
    Alcotest.run "lint_golden"
      [ ("golden", [ Alcotest.test_case "LL4xx/LL5xx digests vs reference" `Quick test_golden ]) ]
