(* Differential tests of the closed-form sector count
   {!Gpusim.Coalesce.warp_sectors} against the enumerating definition
   {!Gpusim.Coalesce.transactions}: on random distributed layouts, and on
   every layout, byte width and vectorization the kernel suite passes to
   the coalescing model in both modes. *)

open Linear_layout

let check_int = Alcotest.(check int)

(* The reference: enumerate the [(byte_addr, bytes)] accesses of each of
   the [regs / vec] warp instructions and count their sectors. *)
let enumerated layout ~byte_width ~vec =
  let f = Layout.apply_flat (Layout.flatten_outs layout) in
  let reg_bits = Layout.in_bits layout Dims.register in
  let insts = max 1 (Layout.in_size layout Dims.register / vec) in
  List.init insts (fun g ->
      Gpusim.Coalesce.transactions
        (List.init (Layout.in_size layout Dims.lane) (fun lane ->
             (f ((g * vec) lor (lane lsl reg_bits)) * byte_width, vec * byte_width))))

(* Every instruction touches [warp_sectors] sectors, and the engine's
   per-access totals are the enumerated sums over warps. *)
let agrees layout ~byte_width ~vec =
  let per_inst = enumerated layout ~byte_width ~vec in
  let sectors = Gpusim.Coalesce.warp_sectors layout ~byte_width ~vec in
  let warps = Layout.in_size layout Dims.warp in
  List.for_all (( = ) sectors) per_inst
  && Tir.Pass_util.global_access_counts layout ~byte_width ~vec
     = (List.length per_inst * warps, List.fold_left ( + ) 0 per_inst * warps)

(* Powers of two up to the layout's register contiguity: the widths
   both the linear and the legacy vectorizer can pick. *)
let vecs layout =
  let consec = Layout.num_consecutive layout ~in_dim:Dims.register in
  List.filter (fun v -> v <= consec) (List.init 8 (fun k -> 1 lsl k))

(* {1 Random distributed layouts} *)

(* Outputs [dim0] x [dim1]; inputs register, lane and warp.  The first
   [consec] register columns are [e_0 ..] (so vectors wider than one
   element are exercised); the remaining output bits, shuffled together
   with a few zero (broadcast) columns, are dealt out to the remaining
   register, lane and warp bits — which may be none. *)
let gen_layout =
  QCheck.Gen.(
    let* out0 = int_range 1 5 and* out1 = int_range 0 5 in
    let n = out0 + out1 in
    let* consec = int_range 0 (min 4 n) and* zeros = int_range 0 3 in
    let* rest =
      shuffle_l
        (List.init (n - consec) (fun i -> Some (consec + i)) @ List.init zeros (fun _ -> None))
    in
    let avail = List.length rest in
    let* lane_bits = int_range 0 (min 5 avail) in
    let* warp_bits = int_range 0 (min 2 (avail - lane_bits)) in
    let outs = List.filter (fun (_, b) -> b > 0) [ ("dim0", out0); ("dim1", out1) ] in
    let image = function
      | Some p -> Layout.unflatten_value outs (1 lsl p)
      | None -> Layout.unflatten_value outs 0
    in
    let reg_extra = avail - lane_bits - warp_bits in
    let take k l = List.filteri (fun i _ -> i < k) l in
    let drop k l = List.filteri (fun i _ -> i >= k) l in
    let regs = List.init consec (fun p -> Some p) @ take reg_extra rest in
    let lanes = take lane_bits (drop reg_extra rest) in
    let warps = drop (reg_extra + lane_bits) rest in
    let ins =
      [
        (Dims.register, List.length regs);
        (Dims.lane, List.length lanes);
        (Dims.warp, List.length warps);
      ]
    in
    let bases =
      [
        (Dims.register, List.map image regs);
        (Dims.lane, List.map image lanes);
        (Dims.warp, List.map image warps);
      ]
    in
    return (Layout.make ~ins ~outs ~bases))

let arb_case =
  QCheck.make
    QCheck.Gen.(pair gen_layout (oneofl [ 1; 2; 4; 8 ]))
    ~print:(fun (l, bw) -> Printf.sprintf "byte_width %d\n%s" bw (Layout.to_string l))

let prop_random =
  QCheck.Test.make ~name:"warp_sectors = enumeration on random distributed layouts" ~count:500
    arb_case (fun (l, byte_width) ->
      Layout.is_distributed l
      && List.for_all (fun vec -> agrees l ~byte_width ~vec) (vecs l))

(* {1 Fixed cases} *)

let row ~regs ~lanes =
  Layout.make
    ~ins:[ (Dims.register, regs); (Dims.lane, lanes) ]
    ~outs:[ ("dim0", regs + lanes) ]
    ~bases:
      [
        (Dims.register, List.init regs (fun k -> [ ("dim0", 1 lsl k) ]));
        (Dims.lane, List.init lanes (fun k -> [ ("dim0", 1 lsl (regs + k)) ]));
      ]

let test_fixed () =
  (* 32 lanes x one f32: 128 contiguous bytes, four sectors. *)
  check_int "coalesced f32 row" 4
    (Gpusim.Coalesce.warp_sectors (row ~regs:0 ~lanes:5) ~byte_width:4 ~vec:1);
  (* 32 lanes x 16 f32 (64 bytes each, a legacy width): 64 sectors. *)
  check_int "64-byte accesses" 64
    (Gpusim.Coalesce.warp_sectors (row ~regs:4 ~lanes:5) ~byte_width:4 ~vec:16);
  (* Every lane broadcasts one 8-byte element: a single sector. *)
  let bcast =
    Layout.make
      ~ins:[ (Dims.register, 0); (Dims.lane, 5) ]
      ~outs:[ ("dim0", 1) ]
      ~bases:[ (Dims.lane, List.init 5 (fun _ -> [ ("dim0", 0) ])) ]
  in
  check_int "broadcast lanes" 1 (Gpusim.Coalesce.warp_sectors bcast ~byte_width:8 ~vec:1);
  List.iter
    (fun (regs, lanes) ->
      let l = row ~regs ~lanes in
      List.iter
        (fun byte_width ->
          List.iter
            (fun vec ->
              if not (agrees l ~byte_width ~vec) then
                Alcotest.failf "row regs=%d lanes=%d bw=%d vec=%d" regs lanes byte_width vec)
            (vecs l))
        [ 1; 2; 4; 8 ])
    [ (0, 0); (0, 5); (3, 0); (2, 5); (4, 6) ]

let raises_mentioning what f =
  match f () with
  | (_ : int) -> Alcotest.failf "expected Invalid_argument mentioning %s" what
  | exception Invalid_argument msg ->
      let n = String.length what in
      let rec has i = i + n <= String.length msg && (String.sub msg i n = what || has (i + 1)) in
      if not (has 0) then Alcotest.failf "message %S does not mention %s" msg what

let test_non_aligned () =
  (* A lane column that sets element bit 0 under vec = 2: lane 1 starts
     at an odd element, so its 2-element access is not aligned. *)
  let lane_odd =
    Layout.make
      ~ins:[ (Dims.register, 1); (Dims.lane, 1) ]
      ~outs:[ ("dim0", 2) ]
      ~bases:[ (Dims.register, [ [ ("dim0", 2) ] ]); (Dims.lane, [ [ ("dim0", 1) ] ]) ]
  in
  raises_mentioning "lane basis vector 0" (fun () ->
      Gpusim.Coalesce.warp_sectors lane_odd ~byte_width:4 ~vec:2);
  (* A register column above the vector that sets bit 0: the second
     instruction starts at an odd element. *)
  let reg_odd =
    Layout.make
      ~ins:[ (Dims.register, 2) ]
      ~outs:[ ("dim0", 2) ]
      ~bases:[ (Dims.register, [ [ ("dim0", 1) ]; [ ("dim0", 3) ] ]) ]
  in
  raises_mentioning "register basis vector 1" (fun () ->
      Gpusim.Coalesce.warp_sectors reg_odd ~byte_width:4 ~vec:2);
  raises_mentioning "not a power of two" (fun () ->
      Gpusim.Coalesce.warp_sectors (row ~regs:2 ~lanes:5) ~byte_width:4 ~vec:3)

(* {1 The kernel suite} *)

(* Every kernel at its first size, on every machine, in both modes: the
   accesses [lower] prices (at the vectorization the mode picks), and
   every distributed layout the engine assigned, at its dtype's byte
   width and every vectorization up to its contiguity. *)
let test_suite () =
  let checked = ref 0 in
  List.iter
    (fun (machine : Gpusim.Machine.t) ->
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          List.iter
            (fun mode ->
              let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
              let st = Tir.Pass.init machine ~mode prog in
              ignore (Tir.Pass_manager.run (Tir.Pass_manager.config Tir.Passes.default) st);
              let check what l ~byte_width ~vec =
                incr checked;
                if not (agrees l ~byte_width ~vec) then
                  Alcotest.failf "%s on %s: %s, byte_width %d, vec %d\n%s" k.Tir.Kernels.name
                    machine.Gpusim.Machine.name what byte_width vec (Layout.to_string l)
              in
              List.iter
                (fun (a : Tir.Pass.access) ->
                  match a.Tir.Pass.access_kind with
                  | Tir.Pass.Register_materialize -> ()
                  | Tir.Pass.Global_load | Tir.Pass.Global_store ->
                      let l = a.Tir.Pass.access_layout
                      and byte_width = a.Tir.Pass.access_byte_width in
                      check "access" l ~byte_width
                        ~vec:(Tir.Pass_util.vec_for st l ~byte_width))
                st.Tir.Pass.accesses;
              Array.iter
                (fun (ins : Tir.Program.instr) ->
                  match ins.Tir.Program.layout with
                  | Some l when Layout.is_distributed l ->
                      let byte_width = Tir.Pass_util.byte_width_of ins.Tir.Program.dtype in
                      List.iter (fun vec -> check "value" l ~byte_width ~vec) (vecs l)
                  | _ -> ())
                (Tir.Program.instrs prog))
            [ Tir.Pass.Linear; Tir.Pass.Legacy_mode ])
        Tir.Kernels.all)
    Gpusim.Machine.all_with_extras;
  Alcotest.(check bool) "suite exercised" true (!checked > 1000)

let () =
  Alcotest.run "coalesce"
    (Shuffle_support.maybe_shuffle
       [
         ( "closed form",
           [
             Alcotest.test_case "fixed layouts" `Quick test_fixed;
             Alcotest.test_case "non-aligned access raises" `Quick test_non_aligned;
             Alcotest.test_case "kernel suite, both modes" `Quick test_suite;
           ] );
         ("properties", [ QCheck_alcotest.to_alcotest prop_random ]);
       ])
