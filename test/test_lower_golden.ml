(* Golden digests of the lowered ISA programs of the kernel suite (one
   row per kernel x machine x mode) and of the CTA-wide pair pool (see
   {!Suite_plans.pair_rows}).  Each row holds the number of lowered plans,
   their total instruction count and an MD5 digest over a canonical
   rendering of every program (all per-lane tables included).  The
   table-driven lowering must emit exactly the programs of the
   per-point reference it replaced.

   Regenerate after an intentional lowering change with

     dune exec test/test_lower_golden.exe -- regen *)

(* Canonical rendering: unlike [Gpusim.Isa.pp], nothing is elided. *)
let render (p : Gpusim.Isa.program) =
  let b = Buffer.create 4096 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let tag s = Buffer.add_string b s in
  let table t =
    Array.iter (Array.iter int) t;
    tag ";"
  in
  int p.Gpusim.Isa.warps;
  int p.Gpusim.Isa.lanes;
  int p.Gpusim.Isa.smem_elems;
  List.iter
    (function
      | Gpusim.Isa.Mov { dst; src } ->
          tag "mov ";
          int dst;
          int src
      | Gpusim.Isa.Sel { dst; src_slot } ->
          tag "sel ";
          int dst;
          table src_slot
      | Gpusim.Isa.Scatter { src; dst_slot } ->
          tag "scatter ";
          int src;
          table dst_slot
      | Gpusim.Isa.Shfl_idx { dst; src; src_lane; keep } ->
          tag "shfl ";
          int dst;
          int src;
          table src_lane;
          table (Array.map (Array.map Bool.to_int) keep)
      | Gpusim.Isa.St_shared { slots; addr; byte_width } ->
          tag "st ";
          List.iter int slots;
          table (Isa_fuzz.rows p addr);
          int byte_width
      | Gpusim.Isa.Ld_shared { slots; addr; byte_width } ->
          tag "ld ";
          List.iter int slots;
          table (Isa_fuzz.rows p addr);
          int byte_width
      | Gpusim.Isa.Bin { op; dst; a; b } ->
          tag (match op with `Add -> "add " | `Max -> "max ");
          int dst;
          int a;
          int b
      | Gpusim.Isa.Bar_sync -> tag "bar ")
    p.Gpusim.Isa.body;
  Buffer.contents b

let line_of (r : Suite_plans.row) =
  let lowered = ref 0 and instrs = ref 0 in
  let parts =
    List.filter_map
      (fun plan ->
        if not (Suite_plans.lowerable plan) then None
        else
          match Codegen.Lower.conversion r.Suite_plans.machine plan with
          | exception Failure msg -> Some ("fail " ^ msg)
          | program, map ->
              incr lowered;
              instrs := !instrs + List.length program.Gpusim.Isa.body;
              Some (render program ^ string_of_int map.Codegen.Lower.total_slots))
      r.Suite_plans.plans
  in
  Printf.sprintf "%s|%s|%s|%d %d|%s" r.Suite_plans.kernel
    r.Suite_plans.machine.Gpusim.Machine.name r.Suite_plans.mode !lowered !instrs
    (Digest.to_hex (Digest.string (String.concat "\n" parts)))

let golden = {golden|
gemm|RTX4090|linear|3 107|bf408af895ab4522df8efbeed3ee0bd8
gemm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|RTX4090|linear|3 107|bf408af895ab4522df8efbeed3ee0bd8
bf16xint16_gemm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|RTX4090|linear|3 107|b29e6817b4ba9f0d3e39a6ee1d88d1b7
int4_gemm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|RTX4090|linear|3 91|5a17d01b8b670e96605e445540db24db
fp8_gemm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|RTX4090|linear|6 214|47b831464c924d68508b7d23d6caca8d
grouped_gemm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
addmm|RTX4090|linear|4 204|529d338df5e8464318c5a37f1425f02e
addmm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|RTX4090|linear|3 107|788b6ddcb18257d54082af79cd7fd46e
bmm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
template_attention|RTX4090|linear|6 244|e2b888dd7f8c1b528ee6bffd71da2b92
template_attention|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
flex_attention|RTX4090|linear|6 244|e2b888dd7f8c1b528ee6bffd71da2b92
flex_attention|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
attention_bwd|RTX4090|linear|7 249|27655b8fbdcb07b11917fc9b4c6ee6b0
attention_bwd|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|RTX4090|linear|1 65|2f36fd8958fc6414190c045e8575a47e
gather_gemv|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rope|RTX4090|linear|2 384|dddbf20bd406362bf80f456aae4f988b
rope|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|RTX4090|linear|1 129|5dd6be0ce890904dd9e8737f3edaf3b5
embedding|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|RTX4090|linear|2 258|a9331a3d9dd7df04867bf4f6f823703e
cross_entropy|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|RTX4090|linear|4 732|bc06dfb5bea2282b02e8eaa4a9b78472
fused_linear_cross_entropy|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|RTX4090|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|RTX4090|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|GH200|linear|3 107|bf408af895ab4522df8efbeed3ee0bd8
gemm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|GH200|linear|3 107|bf408af895ab4522df8efbeed3ee0bd8
bf16xint16_gemm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|GH200|linear|3 107|b29e6817b4ba9f0d3e39a6ee1d88d1b7
int4_gemm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|GH200|linear|3 91|5a17d01b8b670e96605e445540db24db
fp8_gemm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|GH200|linear|6 214|47b831464c924d68508b7d23d6caca8d
grouped_gemm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
addmm|GH200|linear|4 204|529d338df5e8464318c5a37f1425f02e
addmm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|GH200|linear|3 107|788b6ddcb18257d54082af79cd7fd46e
bmm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
template_attention|GH200|linear|6 244|e2b888dd7f8c1b528ee6bffd71da2b92
template_attention|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
flex_attention|GH200|linear|6 244|e2b888dd7f8c1b528ee6bffd71da2b92
flex_attention|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
attention_bwd|GH200|linear|7 249|27655b8fbdcb07b11917fc9b4c6ee6b0
attention_bwd|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|GH200|linear|1 65|2f36fd8958fc6414190c045e8575a47e
gather_gemv|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rope|GH200|linear|2 384|dddbf20bd406362bf80f456aae4f988b
rope|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|GH200|linear|1 129|5dd6be0ce890904dd9e8737f3edaf3b5
embedding|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|GH200|linear|2 258|a9331a3d9dd7df04867bf4f6f823703e
cross_entropy|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|GH200|linear|4 732|bc06dfb5bea2282b02e8eaa4a9b78472
fused_linear_cross_entropy|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|GH200|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|GH200|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
addmm|MI250|linear|1 65|b288bd76579247cecccbe8bc44d58255
addmm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
template_attention|MI250|linear|2 48|165990dec14be99c9212f13a52409c43
template_attention|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
flex_attention|MI250|linear|2 48|165990dec14be99c9212f13a52409c43
flex_attention|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
attention_bwd|MI250|linear|3 73|d1d4a860a88c4364ff78f8e4cafebd45
attention_bwd|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|MI250|linear|2 43|cf72d5ed7111c8b4de07b99c64efcc97
gather_gemv|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rope|MI250|linear|2 192|94580cb659ac32af517e04862b94f799
rope|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|MI250|linear|1 65|f26c35711bc2499a93a62c24d2476afe
embedding|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|MI250|linear|2 194|b3b9f95816f14cffd5c8c46dd327a8ca
fused_linear_cross_entropy|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|MI250|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|MI250|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
gemm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
bf16xint16_gemm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
int4_gemm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
fp8_gemm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
grouped_gemm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
addmm|PVC|linear|1 129|267563554359778a055b22c208fa06f6
addmm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
bmm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
template_attention|PVC|linear|2 192|85a6933bbb6214eefaa8662367ffc8ee
template_attention|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
flex_attention|PVC|linear|2 192|85a6933bbb6214eefaa8662367ffc8ee
flex_attention|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
attention_bwd|PVC|linear|2 192|85a6933bbb6214eefaa8662367ffc8ee
attention_bwd|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
welford|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
gather_gemv|PVC|linear|1 129|ce10e76fe64b44bf49005f7913e22b0d
gather_gemv|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rope|PVC|linear|2 768|75c18b0cfa2090cae668a5719e70893f
rope|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
embedding|PVC|linear|1 257|47664a132c4deb635ab8bae5456935ec
embedding|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
layer_norm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
rms_norm|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cross_entropy|PVC|linear|2 514|6d8ad13a02afa90a0f645b4e312a049b
cross_entropy|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
fused_linear_cross_entropy|PVC|linear|2 3072|5e91a4e7475d4c3511c2c3dcb52dfc0a
fused_linear_cross_entropy|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
cumsum|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_sum|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
softmax_bwd|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
jagged_mean|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
low_mem_dropout|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
swiglu|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
geglu|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|PVC|linear|0 0|d41d8cd98f00b204e9800998ecf8427e
vector_add|PVC|legacy|0 0|d41d8cd98f00b204e9800998ecf8427e
pair0|GH200|plain|1 8|9efe4c4e3a11fef5586a5863fe3ce7cb
pair0|GH200|broadcast|1 16|31b0d051049dc5556925678a3703075d
pair1|GH200|plain|1 9|85b24b52ab3ca5227bc0a85056934d90
pair1|GH200|broadcast|1 17|0d3e98a3c762809cc4fe40ff73eb3459
pair2|GH200|plain|1 5|0dfec56361c5ca8f549a72158b58b4f6
pair2|GH200|broadcast|1 9|1a6f6705e102f385fff425674ac2735f
pair3|GH200|plain|1 5|610ad060a77b2cea873572234a843de5
pair3|GH200|broadcast|1 9|95b54908676d7667f0ec1e637a005bf2
pair4|GH200|plain|1 17|2877f9e3f85d4a8343a24414bf016005
pair4|GH200|broadcast|1 33|cc8f005d0a4da4c77be33774c206efdb
pair5|GH200|plain|1 9|202d1cc1a652b569666c940b9fb5c288
pair5|GH200|broadcast|1 17|f3315fb4773f972dc3a6461708ace105
pair6|GH200|plain|1 7|28725b20e374b5392dbc77c41c6ad207
pair6|GH200|broadcast|1 13|e7c7ba3011af1c5951f83bcafda979e4
pair7|GH200|plain|1 9|a2202b7fe1979d9a61b3549da7b0dc88
pair7|GH200|broadcast|1 17|c7cf782ca628dd3d7df49f3263186ddb
pair8|GH200|plain|1 5|806e0c4e28fe5081977ded17a23e654a
pair8|GH200|broadcast|1 9|42fe4800ac3d2a364c8c75fc187daf08
pair9|GH200|plain|1 9|296356c38fbdd1ad8c90dbea539d445a
pair9|GH200|broadcast|1 17|73252a2996d3eab366330a28532a9deb
pair10|GH200|plain|1 25|9cc99454e9cd27d13ffa63761c912ac2
pair10|GH200|broadcast|1 49|9f06b94bed9126af4f9a89fd52708396
pair11|GH200|plain|1 17|db430b6c9c9057b1ebffcea3df54d670
pair11|GH200|broadcast|1 33|fe6c68d28d1da764379c033a8b69a5a7
pair12|GH200|plain|1 11|8798984b732139b37062840de12f8acc
pair12|GH200|broadcast|1 21|ce0311380ee035e08a944d25262cb510
pair13|GH200|plain|1 9|2fc36482818d500ca6838d4d91468292
pair13|GH200|broadcast|1 17|e9343a2cf2552e68b91f4d44cc8c9192
pair14|GH200|plain|1 7|268f0ef0daf00c49f8b6933c79491f76
pair14|GH200|broadcast|1 13|1395fcecc35b2f573ab60fa34f414ced
pair15|GH200|plain|1 17|067084fe8248fd4fb23b9dc63373269a
pair15|GH200|broadcast|1 33|bf60857f78194f990fbb059f4dd154bd
pair16|GH200|plain|1 41|25df0d26d6e4d9b17e02f75306dbef3c
pair16|GH200|broadcast|1 81|eef15dec9e9059a391074f59d5909d1d
pair17|GH200|plain|1 25|c406db700c426949284b2f3c50736011
pair17|GH200|broadcast|1 49|f95ba5dc1ba0e7ea83644eeb40d0adf2
|golden}

let test_golden () =
  let expected =
    String.split_on_char '\n' golden |> List.filter (fun l -> String.trim l <> "")
  in
  let actual = List.map line_of (Suite_plans.rows () @ Suite_plans.pair_rows ()) in
  Alcotest.(check int) "table covers kernels x machines x modes" (List.length expected)
    (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "lowered programs" e a) expected actual

let () =
  if Array.mem "regen" Sys.argv then
    List.iter (fun r -> print_endline (line_of r)) (Suite_plans.rows () @ Suite_plans.pair_rows ())
  else
    Alcotest.run "lower_golden"
      [ ("golden", [ Alcotest.test_case "ISA digests vs reference" `Quick test_golden ]) ]
