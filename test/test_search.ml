(* The beam-search layout-assignment strategy (Assign_search):

   - a 216-row golden sweep (kernels x machines x modes, beam 1)
     pinning the greedy/search objectives and the winning script —
     search is never worse than greedy and strictly better on a healthy
     fraction of the rows;
   - a qcheck property on random engine-path programs: the search
     objective never exceeds greedy's, and both assignments pass full
     translation validation;
   - determinism: the winner and its cost are identical for any
     [domains] count.

   Regenerate the golden table after an intentional engine change with

     SEARCH_GOLDEN_REGEN=1 dune exec test/test_search.exe *)

open Tir

let params = { Assign_search.beam = 1; domains = 1 }

let modes = [ (Engine.Linear, "linear"); (Engine.Legacy_mode, "legacy") ]

let machines =
  List.map
    (fun (m : Gpusim.Machine.t) -> (m.Gpusim.Machine.name, m))
    Gpusim.Machine.all_with_extras

let row (m : Gpusim.Machine.t) (k : Kernels.kernel) mode mode_name =
  let size = List.hd k.Kernels.sizes in
  let o = Assign_search.run m ~mode ~params (k.Kernels.build ~size) in
  let s = o.Assign_search.stats in
  Printf.sprintf "%s|%s|%s|%.4f %.4f|%s" k.Kernels.name m.Gpusim.Machine.name mode_name
    s.Assign_search.greedy_cost s.Assign_search.best_cost
    (String.concat "," (List.map string_of_int o.Assign_search.script))

let all_rows () =
  List.concat_map
    (fun (_, m) ->
      List.concat_map
        (fun k -> List.map (fun (mode, name) -> row m k mode name) modes)
        Kernels.all)
    machines

(* {1 The golden table}

   kernel|machine|mode|greedy_objective search_objective|winning script *)

let golden = {golden|
gemm|RTX4090|linear|20416.0000 20344.0000|0,2
gemm|RTX4090|legacy|21196.0000 21196.0000|
bf16xint16_gemm|RTX4090|linear|20420.0000 20348.0000|0,2
bf16xint16_gemm|RTX4090|legacy|21200.0000 21200.0000|
int4_gemm|RTX4090|linear|19396.0000 19216.0000|0,1
int4_gemm|RTX4090|legacy|20618.0000 20618.0000|
fp8_gemm|RTX4090|linear|14956.0000 14776.0000|0,1
fp8_gemm|RTX4090|legacy|16250.0000 16250.0000|
grouped_gemm|RTX4090|linear|63312.0000 63184.0000|0,2,0,2
grouped_gemm|RTX4090|legacy|66528.0000 66528.0000|
addmm|RTX4090|linear|89504.0000 87192.0000|0,0,0,1
addmm|RTX4090|legacy|93472.0000 90456.0000|0,0,0,1
bmm|RTX4090|linear|18424.0000 18360.0000|0,2
bmm|RTX4090|legacy|19672.0000 19672.0000|
template_attention|RTX4090|linear|19196.0000 19060.0000|0,1,0,2
template_attention|RTX4090|legacy|21832.0000 21434.0000|0,0,0,0,1,1
flex_attention|RTX4090|linear|19204.0000 19068.0000|0,1,0,2
flex_attention|RTX4090|legacy|21840.0000 21442.0000|0,0,0,0,1,1
attention_bwd|RTX4090|linear|17720.0000 17400.0000|0,1,2,1
attention_bwd|RTX4090|legacy|21256.0000 20482.0000|0,0,0,1
welford|RTX4090|linear|35360.0000 35360.0000|
welford|RTX4090|legacy|37852.0000 36178.0000|0,1
gather_gemv|RTX4090|linear|69880.0000 67696.0000|2,0,2
gather_gemv|RTX4090|legacy|81862.0000 78526.0000|2,0,2
rope|RTX4090|linear|26608.0000 25648.0000|0,0,1
rope|RTX4090|legacy|28128.0000 26120.0000|1,0,1
embedding|RTX4090|linear|136968.0000 132608.0000|2
embedding|RTX4090|legacy|159768.0000 153104.0000|2
softmax|RTX4090|linear|35344.0000 35344.0000|
softmax|RTX4090|legacy|37836.0000 36162.0000|0,1
layer_norm|RTX4090|linear|35344.0000 35344.0000|
layer_norm|RTX4090|legacy|37836.0000 36162.0000|0,1
rms_norm|RTX4090|linear|34120.0000 34120.0000|
rms_norm|RTX4090|legacy|35366.0000 35306.0000|0,1
cross_entropy|RTX4090|linear|83144.0000 78528.0000|0,1
cross_entropy|RTX4090|legacy|87614.0000 81418.0000|0,1
fused_linear_cross_entropy|RTX4090|linear|95432.0000 88496.0000|0,0,1
fused_linear_cross_entropy|RTX4090|legacy|131722.0000 125526.0000|0,0,1
cumsum|RTX4090|linear|36160.0000 36160.0000|
cumsum|RTX4090|legacy|36160.0000 36160.0000|
jagged_sum|RTX4090|linear|37384.0000 37384.0000|
jagged_sum|RTX4090|legacy|38630.0000 35370.0000|0,1
softmax_bwd|RTX4090|linear|50600.0000 50600.0000|
softmax_bwd|RTX4090|legacy|51846.0000 51846.0000|
jagged_mean|RTX4090|linear|27960.0000 26072.0000|2,2
jagged_mean|RTX4090|legacy|28598.0000 28570.0000|0,0,1
low_mem_dropout|RTX4090|linear|33088.0000 33088.0000|
low_mem_dropout|RTX4090|legacy|33088.0000 33088.0000|
swiglu|RTX4090|linear|49568.0000 49568.0000|
swiglu|RTX4090|legacy|49568.0000 49568.0000|
geglu|RTX4090|linear|49600.0000 49600.0000|
geglu|RTX4090|legacy|49600.0000 49600.0000|
vector_add|RTX4090|linear|49504.0000 49504.0000|
vector_add|RTX4090|legacy|49504.0000 49504.0000|
gemm|GH200|linear|13504.0000 13432.0000|0,2
gemm|GH200|legacy|13388.0000 13388.0000|
bf16xint16_gemm|GH200|linear|13508.0000 13436.0000|0,2
bf16xint16_gemm|GH200|legacy|13392.0000 13392.0000|
int4_gemm|GH200|linear|12868.0000 12688.0000|0,1
int4_gemm|GH200|legacy|12682.0000 12682.0000|
fp8_gemm|GH200|linear|9964.0000 9784.0000|0,1
fp8_gemm|GH200|legacy|9850.0000 9850.0000|
grouped_gemm|GH200|linear|41808.0000 41680.0000|0,2,0,2
grouped_gemm|GH200|legacy|41440.0000 41440.0000|
addmm|GH200|linear|58784.0000 56472.0000|0,0,0,1
addmm|GH200|legacy|59168.0000 56152.0000|0,0,0,1
bmm|GH200|linear|12280.0000 12216.0000|0,2
bmm|GH200|legacy|11736.0000 11736.0000|
template_attention|GH200|linear|13052.0000 12908.0000|0,2,0,2
template_attention|GH200|legacy|13896.0000 13498.0000|0,0,0,0,1,1
flex_attention|GH200|linear|13060.0000 12916.0000|0,2,0,2
flex_attention|GH200|legacy|13904.0000 13506.0000|0,0,0,0,1,1
attention_bwd|GH200|linear|12344.0000 12016.0000|0,2,2,1
attention_bwd|GH200|legacy|13192.0000 12418.0000|0,0,0,1
welford|GH200|linear|23072.0000 23072.0000|
welford|GH200|legacy|25564.0000 23890.0000|0,1
gather_gemv|GH200|linear|45256.0000 43072.0000|2,0,2
gather_gemv|GH200|legacy|57262.0000 53926.0000|2,0,2
rope|GH200|linear|17392.0000 16432.0000|0,0,1
rope|GH200|legacy|18912.0000 16904.0000|1,0,1
embedding|GH200|linear|87816.0000 83456.0000|2
embedding|GH200|legacy|110616.0000 103952.0000|2
softmax|GH200|linear|23056.0000 23056.0000|
softmax|GH200|legacy|25548.0000 23874.0000|0,1
layer_norm|GH200|linear|23056.0000 23056.0000|
layer_norm|GH200|legacy|25548.0000 23874.0000|0,1
rms_norm|GH200|linear|21832.0000 21832.0000|
rms_norm|GH200|legacy|23078.0000 23018.0000|0,1
cross_entropy|GH200|linear|58376.0000 53760.0000|0,1
cross_entropy|GH200|legacy|62942.0000 56746.0000|0,1
fused_linear_cross_entropy|GH200|linear|70040.0000 63104.0000|0,0,1
fused_linear_cross_entropy|GH200|legacy|77610.0000 71414.0000|0,0,1
cumsum|GH200|linear|23872.0000 23872.0000|
cumsum|GH200|legacy|23872.0000 23872.0000|
jagged_sum|GH200|linear|25096.0000 25096.0000|
jagged_sum|GH200|legacy|26342.0000 23082.0000|0,1
softmax_bwd|GH200|linear|32168.0000 32168.0000|
softmax_bwd|GH200|legacy|33414.0000 33414.0000|
jagged_mean|GH200|linear|18744.0000 16856.0000|2,2
jagged_mean|GH200|legacy|19382.0000 19354.0000|0,0,1
low_mem_dropout|GH200|linear|20800.0000 20800.0000|
low_mem_dropout|GH200|legacy|20800.0000 20800.0000|
swiglu|GH200|linear|31136.0000 31136.0000|
swiglu|GH200|legacy|31136.0000 31136.0000|
geglu|GH200|linear|31168.0000 31168.0000|
geglu|GH200|legacy|31168.0000 31168.0000|
vector_add|GH200|linear|31072.0000 31072.0000|
vector_add|GH200|legacy|31072.0000 31072.0000|
gemm|MI250|linear|18050.0000 17742.0000|0,1
gemm|MI250|legacy|18706.0000 18706.0000|
bf16xint16_gemm|MI250|linear|18052.0000 17744.0000|0,1
bf16xint16_gemm|MI250|legacy|18708.0000 18708.0000|
int4_gemm|MI250|linear|17200.0000 16616.0000|0,1
int4_gemm|MI250|legacy|18262.0000 18262.0000|
fp8_gemm|MI250|linear|13240.0000 12656.0000|0,1
fp8_gemm|MI250|legacy|14430.0000 14430.0000|
grouped_gemm|MI250|linear|55648.0000 55112.0000|0,1,0,1
grouped_gemm|MI250|legacy|58696.0000 58696.0000|
addmm|MI250|linear|80400.0000 80008.0000|0,2,0,1
addmm|MI250|legacy|82048.0000 79512.0000|0,0,0,1
bmm|MI250|linear|16508.0000 16240.0000|0,1
bmm|MI250|legacy|17448.0000 17448.0000|
template_attention|MI250|linear|17950.0000 17388.0000|0,1,0,1
template_attention|MI250|legacy|19218.0000 18892.0000|0,0,0,0,1,1
flex_attention|MI250|linear|17954.0000 17392.0000|0,1,0,1
flex_attention|MI250|legacy|19222.0000 18896.0000|0,0,0,0,1,1
attention_bwd|MI250|linear|17774.0000 17198.0000|0,1,1
attention_bwd|MI250|legacy|18882.0000 18176.0000|0,0,0,1
welford|MI250|linear|29928.0000 29928.0000|
welford|MI250|legacy|32420.0000 31026.0000|0,1
gather_gemv|MI250|linear|66992.0000 59424.0000|2,0,2
gather_gemv|MI250|legacy|67170.0000 64086.0000|2,0,2
rope|MI250|linear|22648.0000 22104.0000|0,0,1
rope|MI250|legacy|24568.0000 22664.0000|1,0,1
embedding|MI250|linear|121736.0000 115456.0000|2
embedding|MI250|legacy|132120.0000 125712.0000|2
softmax|MI250|linear|29920.0000 29920.0000|
softmax|MI250|legacy|32412.0000 31018.0000|0,1
layer_norm|MI250|linear|29920.0000 29920.0000|
layer_norm|MI250|legacy|32412.0000 31018.0000|0,1
rms_norm|MI250|linear|29328.0000 29328.0000|
rms_norm|MI250|legacy|30574.0000 30546.0000|0,1
cross_entropy|MI250|linear|67416.0000 67416.0000|
cross_entropy|MI250|legacy|74454.0000 68146.0000|0,1
fused_linear_cross_entropy|MI250|linear|107134.0000 94598.0000|0,0,1
fused_linear_cross_entropy|MI250|legacy|116376.0000 110068.0000|0,0,1
cumsum|MI250|linear|31056.0000 30128.0000|3
cumsum|MI250|legacy|31056.0000 30128.0000|3
jagged_sum|MI250|linear|31648.0000 31648.0000|
jagged_sum|MI250|legacy|32894.0000 30978.0000|0,1
softmax_bwd|MI250|linear|43712.0000 43712.0000|
softmax_bwd|MI250|legacy|44958.0000 44958.0000|
jagged_mean|MI250|linear|23192.0000 23192.0000|
jagged_mean|MI250|legacy|23838.0000 23826.0000|0,0,1
low_mem_dropout|MI250|linear|28832.0000 28832.0000|
low_mem_dropout|MI250|legacy|28832.0000 28832.0000|
swiglu|MI250|linear|43216.0000 43216.0000|
swiglu|MI250|legacy|43216.0000 43216.0000|
geglu|MI250|linear|43232.0000 43232.0000|
geglu|MI250|legacy|43232.0000 43232.0000|
vector_add|MI250|linear|43184.0000 43184.0000|
vector_add|MI250|legacy|43184.0000 43184.0000|
gemm|PVC|linear|16048.0000 15992.0000|0,2
gemm|PVC|legacy|17664.0000 17664.0000|
bf16xint16_gemm|PVC|linear|16056.0000 16000.0000|0,2
bf16xint16_gemm|PVC|legacy|17672.0000 17672.0000|
int4_gemm|PVC|linear|15096.0000 15096.0000|
int4_gemm|PVC|legacy|17340.0000 17340.0000|
fp8_gemm|PVC|linear|11368.0000 11368.0000|
fp8_gemm|PVC|legacy|13724.0000 13724.0000|
grouped_gemm|PVC|linear|49024.0000 49024.0000|
grouped_gemm|PVC|legacy|55440.0000 55440.0000|
addmm|PVC|linear|71096.0000 70328.0000|0,0,0,1
addmm|PVC|legacy|77856.0000 72856.0000|0,0,0,1
bmm|PVC|linear|14272.0000 14272.0000|
bmm|PVC|legacy|16408.0000 16408.0000|
template_attention|PVC|linear|17368.0000 16184.0000|0,2,0,0,1
template_attention|PVC|legacy|19796.0000 19238.0000|0,0,0,0,1,1
flex_attention|PVC|linear|17384.0000 16200.0000|0,2,0,0,1
flex_attention|PVC|legacy|19812.0000 19254.0000|0,0,0,0,1,1
attention_bwd|PVC|linear|16064.0000 15528.0000|0,2,0,1
attention_bwd|PVC|legacy|19604.0000 18294.0000|0,0,0,1
welford|PVC|linear|29104.0000 29104.0000|
welford|PVC|legacy|32076.0000 30002.0000|0,1
gather_gemv|PVC|linear|56312.0000 51952.0000|2,0,2
gather_gemv|PVC|legacy|78294.0000 74702.0000|2,0,2
rope|PVC|linear|22496.0000 20456.0000|1
rope|PVC|legacy|25008.0000 20360.0000|1,0,1
embedding|PVC|linear|110088.0000 101376.0000|2
embedding|PVC|legacy|149528.0000 142352.0000|2
softmax|PVC|linear|29072.0000 29072.0000|
softmax|PVC|legacy|32044.0000 29970.0000|0,1
layer_norm|PVC|linear|29072.0000 29072.0000|
layer_norm|PVC|legacy|32044.0000 29970.0000|0,1
rms_norm|PVC|linear|26952.0000 26952.0000|
rms_norm|PVC|legacy|28438.0000 28314.0000|0,1
cross_entropy|PVC|linear|75592.0000 66368.0000|0,1
cross_entropy|PVC|legacy|82142.0000 75434.0000|0,1
fused_linear_cross_entropy|PVC|linear|84480.0000 76800.0000|0,0,1
fused_linear_cross_entropy|PVC|legacy|126526.0000 119818.0000|0,0,1
cumsum|PVC|linear|30048.0000 30048.0000|
cumsum|PVC|legacy|30048.0000 30048.0000|
jagged_sum|PVC|linear|32168.0000 32168.0000|
jagged_sum|PVC|legacy|33654.0000 28410.0000|0,1
softmax_bwd|PVC|linear|39432.0000 39432.0000|
softmax_bwd|PVC|legacy|40918.0000 40918.0000|
jagged_mean|PVC|linear|19880.0000 19880.0000|
jagged_mean|PVC|legacy|25774.0000 25714.0000|0,0,1
low_mem_dropout|PVC|linear|25216.0000 25216.0000|
low_mem_dropout|PVC|legacy|25216.0000 25216.0000|
swiglu|PVC|linear|37696.0000 37696.0000|
swiglu|PVC|legacy|37696.0000 37696.0000|
geglu|PVC|linear|37760.0000 37760.0000|
geglu|PVC|legacy|37760.0000 37760.0000|
vector_add|PVC|linear|37568.0000 37568.0000|
vector_add|PVC|legacy|37568.0000 37568.0000|
|golden}

let golden_lines () =
  String.split_on_char '\n' golden |> List.filter (fun l -> String.trim l <> "")

let test_golden () =
  let expected = golden_lines () in
  Alcotest.(check int)
    "table covers kernels x machines x modes"
    (List.length Kernels.all * List.length machines * 2)
    (List.length expected);
  let got = all_rows () in
  List.iter2
    (fun e g ->
      let label =
        match String.split_on_char '|' e with
        | kernel :: machine :: mode :: _ -> Printf.sprintf "%s on %s (%s)" kernel machine mode
        | _ -> e
      in
      Alcotest.(check string) label e g)
    expected got

let test_never_worse () =
  let wins = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char '|' line with
      | [ _; _; _; costs; _ ] -> (
          match String.split_on_char ' ' costs with
          | [ greedy; search ] ->
              let greedy = float_of_string greedy and search = float_of_string search in
              if search > greedy then
                Alcotest.failf "search worse than greedy on %s" line;
              if search < greedy then incr wins
          | _ -> Alcotest.failf "malformed cost pair: %s" costs)
      | _ -> Alcotest.failf "malformed golden line: %s" line)
    (golden_lines ());
  if !wins < 3 then
    Alcotest.failf "search strictly better on only %d row(s), expected >= 3" !wins

(* {1 Random programs}

   Same op-DAG shape as test_engine_fuzz's generator: 2-D f32 values,
   elementwise/reduce-broadcast/transpose/scan chains. *)

let gen_program =
  QCheck.Gen.(
    let* rows = oneofl [ 16; 32 ] in
    let* cols = oneofl [ 32; 64 ] in
    let shape = [| rows; cols |] in
    let* n_ops = int_range 3 10 in
    let* seeds = list_repeat n_ops (pair (int_bound 6) (int_bound 1000)) in
    return
      (let p = Program.create () in
       let x = Program.load p ~name:"x" ~shape ~dtype:Tensor_lib.Dtype.F32 () in
       let y = Program.load p ~name:"y" ~shape ~dtype:Tensor_lib.Dtype.F32 () in
       let live = ref [ x; y ] in
       let pick k = List.nth !live (k mod List.length !live) in
       List.iter
         (fun (op, k) ->
           let v = pick k in
           let id =
             match op with
             | 0 | 1 -> Program.elementwise p ~name:"exp" [ v ]
             | 2 -> Program.elementwise p ~name:"add" [ v; pick (k + 1) ]
             | 3 ->
                 let r = Program.reduce p v ~axis:1 in
                 let e = Program.expand_dims p r ~axis:1 in
                 Program.broadcast p e ~shape
             | 4 ->
                 let t = Program.trans p v ~perm:[| 1; 0 |] in
                 Program.trans p t ~perm:[| 1; 0 |]
             | 5 -> Program.scan p v ~axis:1 ~reverse:(k land 1 = 1)
             | _ -> Program.elementwise p ~name:"mul" [ v; pick (k + 7) ]
           in
           live := id :: !live)
         seeds;
       ignore (Program.store p (List.hd !live));
       p))

let arb_program =
  QCheck.make gen_program ~print:(fun p -> Format.asprintf "%a" Program.pp p)

let m = Gpusim.Machine.gh200

let prop_search_never_worse =
  QCheck.Test.make ~name:"search <= greedy on random programs, both certified" ~count:25
    arb_program (fun p ->
      let o = Assign_search.run m ~mode:Engine.Linear ~params p in
      let s = o.Assign_search.stats in
      if s.Assign_search.best_cost > s.Assign_search.greedy_cost then
        QCheck.Test.fail_reportf "search %.4f > greedy %.4f" s.Assign_search.best_cost
          s.Assign_search.greedy_cost;
      let certified chooser =
        let report =
          match chooser with
          | None -> Certify.run m ~mode:Engine.Linear p
          | Some c -> Certify.run m ~mode:Engine.Linear ~chooser:c p
        in
        match Certify.cert_errors report with
        | [] -> true
        | errs ->
            QCheck.Test.fail_reportf "refuted: %a" Linear_layout.Diagnostics.pp_list errs
      in
      certified None
      && certified (Some (Assign_search.chooser_of_script o.Assign_search.script)))

(* {1 Determinism across domains} *)

let test_deterministic () =
  List.iter
    (fun kernel ->
      let k = Kernels.find kernel in
      let size = List.hd k.Kernels.sizes in
      let outcome domains =
        Assign_search.run m ~mode:Engine.Linear
          ~params:{ Assign_search.beam = 2; domains }
          (k.Kernels.build ~size)
      in
      let reference = outcome 1 in
      List.iter
        (fun domains ->
          let o = outcome domains in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: script, %d domain(s)" kernel domains)
            reference.Assign_search.script o.Assign_search.script;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s: objective, %d domain(s)" kernel domains)
            reference.Assign_search.stats.Assign_search.best_cost
            o.Assign_search.stats.Assign_search.best_cost)
        [ 2; 3; 5 ])
    [ "gemm"; "softmax"; "template_attention" ]

(* {1 Per-plan verdicts}

   The objective's re-price and the lint gate's errors are stored per
   plan value ({!Analysis.Plan_verdict}): a repeated search
   on warm caches computes none of them again and decides the same,
   the same plan value keeps one verdict per machine, and plans planned
   again after the plan caches are dropped are fresh keys whose
   verdicts are computed again with the same outcome. *)

(* The search-tune set-up: beam 2 on MI250. *)
let search_mi250 kernel =
  let k = Kernels.find kernel in
  Assign_search.run Gpusim.Machine.mi250 ~mode:Engine.Linear
    ~params:{ Assign_search.beam = 2; domains = 1 }
    (k.Kernels.build ~size:(List.hd k.Kernels.sizes))

let verdict_kernels = [ "addmm"; "embedding"; "cross_entropy"; "template_attention" ]

let check_same_outcome what (a : Assign_search.outcome) (b : Assign_search.outcome) =
  Alcotest.(check (list int)) (what ^ ": script") a.Assign_search.script b.Assign_search.script;
  Alcotest.(check bool) (what ^ ": stats") true (a.Assign_search.stats = b.Assign_search.stats)

let test_verdicts_warm_repeat () =
  List.iter
    (fun kernel ->
      let first = search_mi250 kernel in
      let second, hits, misses =
        Plan_support.verdict_counts (fun () -> search_mi250 kernel)
      in
      Alcotest.(check int) (kernel ^ ": verdict misses on warm caches") 0 misses;
      Alcotest.(check bool) (kernel ^ ": verdicts read") true (hits > 0);
      check_same_outcome kernel first second)
    verdict_kernels

(* A shared-memory plan of the suite, one value priced on several
   machines: each machine gets its own lowered static cost, on the
   first demand and on the stored read alike.  The shipped machines
   share one bank model, so a half-width-bank variant of GH200 makes
   the prices differ. *)
let test_verdicts_per_machine () =
  let k = Kernels.find "gemm" in
  let result =
    Engine.run m ~mode:Engine.Linear (k.Kernels.build ~size:(List.hd k.Kernels.sizes))
  in
  let plan =
    List.find_map
      (fun (c : Engine.conversion_info) ->
        match c.Engine.plan with
        | Some
            ({ Codegen.Conversion.mechanism = Codegen.Conversion.Shared_memory _; _ } as p) ->
            Some p
        | _ -> None)
      result.Engine.conversions
    |> Option.get
  in
  let lowered mach =
    Analysis.Static_cost.cost mach (fst (Codegen.Lower.conversion mach plan))
  in
  let price mach = Option.get (Analysis.Static_cost.reprice_conversion mach plan) in
  let narrow = { m with Gpusim.Machine.name = "GH200/16 banks"; num_banks = 16 } in
  let machines = Gpusim.Machine.all_with_extras @ [ narrow ] in
  let distinct = List.sort_uniq compare (List.map lowered machines) in
  Alcotest.(check bool)
    "the machines price the plan differently" true
    (List.length distinct > 1);
  for round = 1 to 2 do
    List.iter
      (fun (mach : Gpusim.Machine.t) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, round %d: own lowered cost" mach.Gpusim.Machine.name round)
          true
          (price mach = lowered mach))
      machines
  done

let test_verdicts_after_clear () =
  List.iter
    (fun kernel ->
      let before = search_mi250 kernel in
      Codegen.Plan_cache.clear ();
      Codegen.Shared_cache.clear ();
      let after, _, misses =
        Plan_support.verdict_counts (fun () -> search_mi250 kernel)
      in
      Alcotest.(check bool) (kernel ^ ": verdicts recomputed") true (misses > 0);
      check_same_outcome kernel before after)
    verdict_kernels

let () =
  match Sys.getenv_opt "SEARCH_GOLDEN_REGEN" with
  | Some _ -> List.iter print_endline (all_rows ())
  | None ->
      Alcotest.run "search"
        [
          ( "golden",
            [
              Alcotest.test_case "search-vs-greedy sweep vs seed" `Slow test_golden;
              Alcotest.test_case "never worse, strictly better >= 3" `Quick
                test_never_worse;
            ] );
          ( "properties",
            [ QCheck_alcotest.to_alcotest prop_search_never_worse ] );
          ( "determinism",
            [ Alcotest.test_case "identical for any domain count" `Quick test_deterministic ]
          );
          ( "verdicts",
            [
              Alcotest.test_case "warm repeat search: no misses, same outcome" `Quick
                test_verdicts_warm_repeat;
              Alcotest.test_case "one plan value, each machine's own price" `Quick
                test_verdicts_per_machine;
              Alcotest.test_case "recomputed after the plan caches are cleared" `Quick
                test_verdicts_after_clear;
            ] );
        ]
