open Tensor_lib

type kernel = {
  name : string;
  sizes : int list;
  build : size:int -> Program.t;
  trip : size:int -> int;
  needs_wgmma : bool;
  needs_large_smem : bool;
}

let k_tile = 64

(* A tile of a GEMM: load an [tile_m x k_tile] A tile and a
   [k_tile x tile_n] B tile, multiply, add into the accumulator. *)
let gemm_tile p ~tile_m ~tile_n ~a_dtype ~b_dtype =
  let a = Program.load p ~name:"a" ~shape:[| tile_m; k_tile |] ~dtype:a_dtype () in
  let b = Program.load p ~name:"b" ~shape:[| k_tile; tile_n |] ~dtype:b_dtype () in
  Program.dot p ~a ~b ~acc:Dtype.F32

let softmax_tile p x =
  let mx = Program.reduce p x ~axis:1 in
  let shape = (Program.instr p x).Program.shape in
  let mx = Program.expand_dims p mx ~axis:1 in
  let mx = Program.broadcast p mx ~shape in
  let centered = Program.elementwise p ~name:"sub" [ x; mx ] in
  let e = Program.elementwise p ~name:"exp" [ centered ] in
  let s = Program.reduce p e ~axis:1 in
  let s = Program.expand_dims p s ~axis:1 in
  let s = Program.broadcast p s ~shape in
  Program.elementwise p ~name:"div" [ e; s ]

let simple name ?(sizes = [ 1024; 2048; 4096; 8192 ]) ?(trip = fun ~size -> size / 64)
    ?(needs_wgmma = false) ?(needs_large_smem = false) build =
  { name; sizes; build; trip; needs_wgmma; needs_large_smem }

let gemm_like name ~a_dtype ~b_dtype ?(pre_b = fun _ b -> b) () =
  simple name ~sizes:[ 512; 1024; 2048; 4096 ]
    ~trip:(fun ~size -> size / k_tile)
    (fun ~size ->
      let tile_n = min 128 (max 32 (size / 16)) in
      let p = Program.create () in
      let a = Program.load p ~name:"a" ~shape:[| 128; k_tile |] ~dtype:a_dtype () in
      let b0 = Program.load p ~name:"b" ~shape:[| k_tile; tile_n |] ~dtype:b_dtype () in
      let b = pre_b p b0 in
      let d = Program.dot p ~a ~b ~acc:Dtype.F32 in
      ignore (Program.store p d);
      p)

let attention name ~extra_score_ops =
  simple name ~sizes:[ 1024; 2048; 4096 ]
    ~trip:(fun ~size -> size / 64)
    ~needs_large_smem:(name = "flex_attention")
    (fun ~size ->
      let seq = min 128 (max 32 (size / 32)) in
      let p = Program.create () in
      let q = Program.load p ~name:"q" ~shape:[| 64; 64 |] ~dtype:Dtype.F16 () in
      let kt = Program.load p ~name:"k" ~shape:[| 64; seq |] ~dtype:Dtype.F16 () in
      let scores = Program.dot p ~a:q ~b:kt ~acc:Dtype.F32 in
      (* Score modifiers use position indices (tl.arange), the classic
         rematerialization target: computed in whatever layout the
         scores carry, never converted. *)
      let pos = Program.iota p ~shape:[| 64; seq |] ~axis:1 in
      let posf = Program.elementwise p ~name:"cast" [ pos ] in
      let scores = ref (Program.elementwise p ~name:"mask" [ scores; posf ]) in
      for _ = 2 to extra_score_ops do
        scores := Program.elementwise p ~name:"mod" [ !scores ]
      done;
      let probs = softmax_tile p !scores in
      let probs16 = Program.elementwise p ~name:"cast" [ probs ] in
      let v = Program.load p ~name:"v" ~shape:[| seq; 64 |] ~dtype:Dtype.F16 () in
      let out = Program.dot p ~a:probs16 ~b:v ~acc:Dtype.F32 in
      ignore (Program.store p out);
      p)

let reduction_kernel name ~extra_passes =
  simple name ~sizes:[ 1024; 2048; 4096; 8192 ]
    ~trip:(fun ~size -> size / 1024)
    (fun ~size ->
      let cols = min 2048 (max 256 (size / 4)) in
      let p = Program.create () in
      let x = Program.load p ~name:"x" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
      let shape = [| 32; cols |] in
      let acc = ref x in
      for _ = 1 to extra_passes do
        let m = Program.reduce p !acc ~axis:1 in
        let m = Program.expand_dims p m ~axis:1 in
        let m = Program.broadcast p m ~shape in
        acc := Program.elementwise p ~name:"norm" [ !acc; m ]
      done;
      ignore (Program.store p !acc);
      p)

let elementwise_kernel name ~inputs ~ops =
  simple name
    ~trip:(fun ~size -> size / 1024)
    (fun ~size ->
      let cols = min 2048 (max 256 (size / 4)) in
      let p = Program.create () in
      let xs =
        List.init inputs (fun j ->
            Program.load p
              ~name:(Printf.sprintf "x%d" j)
              ~shape:[| 64; cols |] ~dtype:Dtype.F16 ())
      in
      (* A register-computed mask mixes in, as dropout kernels do. *)
      let mask = Program.iota p ~shape:[| 64; cols |] ~axis:1 in
      let maskf = Program.elementwise p ~name:"cast" [ mask ] in
      let xs = xs @ [ maskf ] in
      let v = ref (Program.elementwise p ~name:"op0" xs) in
      for j = 1 to ops - 1 do
        v := Program.elementwise p ~name:(Printf.sprintf "op%d" j) [ !v ]
      done;
      ignore (Program.store p !v);
      p)

let all =
  [
    gemm_like "gemm" ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 ();
    gemm_like "bf16xint16_gemm" ~a_dtype:Dtype.BF16 ~b_dtype:Dtype.I16
      ~pre_b:(fun p b -> Program.elementwise p ~name:"upcast" [ b ])
      ();
    gemm_like "int4_gemm" ~a_dtype:Dtype.F16 ~b_dtype:Dtype.I8
      ~pre_b:(fun p b ->
        let unpacked = Program.elementwise p ~name:"unpack" [ b ] in
        Program.elementwise p ~name:"scale" [ unpacked ])
      ();
    gemm_like "fp8_gemm" ~a_dtype:Dtype.F8E4M3 ~b_dtype:Dtype.F8E4M3 ();
    simple "grouped_gemm" ~sizes:[ 512; 1024; 2048; 4096 ]
      ~trip:(fun ~size -> 2 * size / k_tile)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let d1 = gemm_tile p ~tile_m:128 ~tile_n:64 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 in
        let d2 = gemm_tile p ~tile_m:128 ~tile_n:64 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 in
        ignore (Program.store p d1);
        ignore (Program.store p d2);
        p);
    simple "addmm" ~sizes:[ 512; 1024; 2048; 4096 ]
      ~trip:(fun ~size -> size / k_tile)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let d = gemm_tile p ~tile_m:128 ~tile_n:128 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 in
        let c = Program.load p ~name:"c" ~shape:[| 128; 128 |] ~dtype:Dtype.F32 () in
        let s = Program.elementwise p ~name:"add" [ d; c ] in
        ignore (Program.store p s);
        p);
    simple "bmm" ~sizes:[ 256; 512; 1024; 2048 ]
      ~trip:(fun ~size -> 4 * size / k_tile)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let d = gemm_tile p ~tile_m:64 ~tile_n:64 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 in
        ignore (Program.store p d);
        p);
    attention "template_attention" ~extra_score_ops:1;
    attention "flex_attention" ~extra_score_ops:3;
    simple "attention_bwd" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 64)
      (fun ~size ->
        (* dV = P^T @ dO: the probabilities carry an MMA layout, and the
           transpose of an MMA layout is not a legacy layout — legacy
           must round-trip through shared memory before it can even
           express the operand (Section 4.4). *)
        let seq = min 128 (max 32 (size / 32)) in
        let p = Program.create () in
        let q = Program.load p ~name:"q" ~shape:[| 64; 64 |] ~dtype:Dtype.F16 () in
        let kt = Program.load p ~name:"k" ~shape:[| 64; seq |] ~dtype:Dtype.F16 () in
        let scores = Program.dot p ~a:q ~b:kt ~acc:Dtype.F32 in
        let probs = softmax_tile p scores in
        let pt = Program.trans p probs ~perm:[| 1; 0 |] in
        let pt16 = Program.elementwise p ~name:"cast" [ pt ] in
        let d_o = Program.load p ~name:"do" ~shape:[| 64; 64 |] ~dtype:Dtype.F16 () in
        let dv = Program.dot p ~a:pt16 ~b:d_o ~acc:Dtype.F32 in
        ignore (Program.store p dv);
        p);
    simple "welford" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        (* Running mean/variance: the conversions between the sliced
           mean and the blocked input are between *equivalent* layouts;
           linear layouts fold them to no-ops (Section 6.2). *)
        let p = Program.create () in
        let cols = min 2048 (max 256 (size / 4)) in
        let x = Program.load p ~name:"x" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
        let shape = [| 32; cols |] in
        let mean = Program.reduce p x ~axis:1 in
        let mean_b = Program.broadcast p (Program.expand_dims p mean ~axis:1) ~shape in
        let delta = Program.elementwise p ~name:"sub" [ x; mean_b ] in
        let sq = Program.elementwise p ~name:"mul" [ delta; delta ] in
        let var = Program.reduce p sq ~axis:1 in
        let var_b = Program.broadcast p (Program.expand_dims p var ~axis:1) ~shape in
        let out = Program.elementwise p ~name:"scale" [ delta; var_b ] in
        ignore (Program.store p out);
        p);
    simple "gather_gemv" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 256)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let w = Program.load p ~name:"w" ~shape:[| 16; 1024 |] ~dtype:Dtype.F16 () in
        let idx = Program.load p ~name:"idx" ~shape:[| 16; 1024 |] ~dtype:Dtype.I32 () in
        let g = Program.gather p ~src:w ~index:idx ~axis:0 in
        let x = Program.load p ~name:"x" ~shape:[| 16; 1024 |] ~dtype:Dtype.F16 () in
        let prod = Program.elementwise p ~name:"mul" [ g; x ] in
        let s = Program.reduce p prod ~axis:1 in
        ignore (Program.store p s);
        p);
    simple "rope" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let x = Program.load p ~name:"x" ~shape:[| 64; 128 |] ~dtype:Dtype.F16 () in
        let cos = Program.load p ~name:"cos" ~shape:[| 64; 128 |] ~dtype:Dtype.F16 () in
        (* Rotate halves: model as a reshape + transpose round trip. *)
        let r = Program.reshape p x ~shape:[| 64; 2; 64 |] in
        let t = Program.trans p r ~perm:[| 0; 2; 1 |] in
        let back = Program.reshape p t ~shape:[| 64; 128 |] in
        let rot = Program.elementwise p ~name:"rotate" [ back; cos ] in
        ignore (Program.store p rot);
        p);
    simple "embedding" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        (* Rows gathered within a warp: lanes and warps live on the
           feature dimension, so the linear path uses warp shuffles. *)
        let table = Program.load p ~name:"table" ~shape:[| 16; 2048 |] ~dtype:Dtype.F16 () in
        let idx = Program.load p ~name:"idx" ~shape:[| 16; 2048 |] ~dtype:Dtype.I32 () in
        let g = Program.gather p ~src:table ~index:idx ~axis:0 in
        ignore (Program.store p g);
        p);
    reduction_kernel "softmax" ~extra_passes:2;
    reduction_kernel "layer_norm" ~extra_passes:2;
    reduction_kernel "rms_norm" ~extra_passes:1;
    simple "cross_entropy" ~sizes:[ 512; 1024; 2048; 4096 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let x = Program.load p ~name:"logits" ~shape:[| 32; 1024 |] ~dtype:Dtype.F32 () in
        let probs = softmax_tile p x in
        let lp = Program.elementwise p ~name:"log" [ probs ] in
        let loss = Program.reduce p lp ~axis:1 in
        ignore (Program.store p loss);
        p);
    simple "fused_linear_cross_entropy" ~sizes:[ 1024; 2048 ] ~needs_large_smem:true
      ~trip:(fun ~size -> size / k_tile)
      (fun ~size ->
        ignore size;
        let p = Program.create () in
        let d = gemm_tile p ~tile_m:32 ~tile_n:1024 ~a_dtype:Dtype.F16 ~b_dtype:Dtype.F16 in
        let probs = softmax_tile p d in
        let lp = Program.elementwise p ~name:"log" [ probs ] in
        let loss = Program.reduce p lp ~axis:1 in
        ignore (Program.store p loss);
        p);
    simple "cumsum" ~sizes:[ 1024; 2048; 4096; 8192 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        let cols = min 2048 (max 256 (size / 4)) in
        let p = Program.create () in
        let x = Program.load p ~name:"x" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
        let s = Program.scan p x ~axis:1 ~reverse:false in
        ignore (Program.store p s);
        p);
    simple "jagged_sum" ~sizes:[ 1024; 2048; 4096 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        (* A reverse cumulative scan feeding a reduction: the op mix the
           legacy scan bugs bit on (Section 5.1's cited issues). *)
        let cols = min 2048 (max 256 (size / 4)) in
        let p = Program.create () in
        let x = Program.load p ~name:"x" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
        let r = Program.reduce p x ~axis:1 in
        let rb = Program.broadcast p (Program.expand_dims p r ~axis:1) ~shape:[| 32; cols |] in
        let scaled = Program.elementwise p ~name:"div" [ x; rb ] in
        let s = Program.scan p scaled ~axis:1 ~reverse:true in
        ignore (Program.store p s);
        p);
    simple "softmax_bwd" ~sizes:[ 1024; 2048; 4096 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        (* dx = p * (dy - sum(p * dy)): two elementwise products around
           a reduction, all in one layout. *)
        let cols = min 2048 (max 256 (size / 4)) in
        let p = Program.create () in
        let probs = Program.load p ~name:"p" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
        let dy = Program.load p ~name:"dy" ~shape:[| 32; cols |] ~dtype:Dtype.F32 () in
        let pdy = Program.elementwise p ~name:"mul" [ probs; dy ] in
        let s = Program.reduce p pdy ~axis:1 in
        let sb =
          Program.broadcast p (Program.expand_dims p s ~axis:1) ~shape:[| 32; cols |]
        in
        let centered = Program.elementwise p ~name:"sub" [ dy; sb ] in
        let dx = Program.elementwise p ~name:"mul" [ probs; centered ] in
        ignore (Program.store p dx);
        p);
    simple "jagged_mean" ~sizes:[ 1024; 2048; 4096 ]
      ~trip:(fun ~size -> size / 1024)
      (fun ~size ->
        (* Gather variable-length rows then average them: gather +
           reduce + broadcast-divide. *)
        let cols = min 1024 (max 256 (size / 4)) in
        let p = Program.create () in
        let values = Program.load p ~name:"v" ~shape:[| 16; cols |] ~dtype:Dtype.F32 () in
        let idx = Program.load p ~name:"offsets" ~shape:[| 16; cols |] ~dtype:Dtype.I32 () in
        let g = Program.gather p ~src:values ~index:idx ~axis:0 in
        let s = Program.reduce p g ~axis:1 in
        let sb =
          Program.broadcast p (Program.expand_dims p s ~axis:1) ~shape:[| 16; cols |]
        in
        let out = Program.elementwise p ~name:"div" [ g; sb ] in
        ignore (Program.store p out);
        p);
    elementwise_kernel "low_mem_dropout" ~inputs:1 ~ops:2;
    elementwise_kernel "swiglu" ~inputs:2 ~ops:3;
    elementwise_kernel "geglu" ~inputs:2 ~ops:4;
    elementwise_kernel "vector_add" ~inputs:2 ~ops:1;
  ]

let find name =
  match List.find_opt (fun k -> k.name = name) all with
  | Some k -> k
  | None -> invalid_arg ("Kernels.find: unknown kernel " ^ name)

let runs_on (m : Gpusim.Machine.t) k =
  (m.has_wgmma || not k.needs_wgmma) && (m.smem_bytes >= 128 * 1024 || not k.needs_large_smem)
