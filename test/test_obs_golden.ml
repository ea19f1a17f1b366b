(* Deterministic traces: running the engine under a fixed clock on every
   shipped kernel (GH200, linear mode) must reproduce the span-tree
   shape and the set of metric names below exactly.  Durations are
   deliberately NOT pinned — only structure and naming, so the table is
   stable across machines.  Every kernel's trace is also schema-checked
   as Chrome trace_event JSON.

   Regenerate after a deliberate pipeline/metric change with
     OBS_GOLDEN_REGEN=1 dune exec test/test_obs_golden.exe 2>/dev/null
   and paste the lines between the markers. *)

let golden = {golden|
gemm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
bf16xint16_gemm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
int4_gemm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
fp8_gemm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
grouped_gemm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
addmm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
bmm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
template_attention|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.conversion.warp_shuffle,codegen.shared_cache.misses,codegen.shuffle.rounds,codegen.shuffle.vec_bits,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
flex_attention|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.conversion.warp_shuffle,codegen.shared_cache.misses,codegen.shuffle.rounds,codegen.shuffle.vec_bits,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
attention_bwd|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.conversion.warp_shuffle,codegen.shared_cache.misses,codegen.shuffle.rounds,codegen.shuffle.vec_bits,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
welford|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
gather_gemv|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
rope|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.warp_shuffle,codegen.shared_cache.misses,codegen.shuffle.rounds,codegen.shuffle.vec_bits
embedding|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
softmax|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
layer_norm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
rms_norm|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
cross_entropy|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
fused_linear_cross_entropy|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.staging.ldmatrix,codegen.staging.planned,codegen.staging.vec,codegen.swizzle.conflict_free,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
cumsum|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
jagged_sum|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
softmax_bwd|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
jagged_mean|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.shared_cache.misses
low_mem_dropout|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
swiglu|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
geglu|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
vector_add|pipeline(pass/anchor pass/forward_propagate pass/simplify pass/backward_remat pass/insert_conversions pass/lower)|codegen.conversion.noop,codegen.conversion.shared_memory,codegen.shared_cache.misses,codegen.swizzle.load_wavefronts,codegen.swizzle.store_wavefronts,codegen.swizzle.vec_bits
|golden}

let machine = Gpusim.Machine.gh200

(* The caches are cleared per kernel so every planner actually runs
   (plan-cache hits would skip the metric sites and make the name set
   depend on kernel order). *)
let trace_kernel (k : Tir.Kernels.kernel) =
  Linear_layout.Layout.Memo.clear ();
  Codegen.Plan_cache.clear ();
  Codegen.Shared_cache.clear ();
  Codegen.Shared_cache.reset_stats ();
  Obs.Metrics.reset ();
  let t = Obs.Trace.create () in
  let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
  let (_ : Tir.Engine.result) =
    Obs.Trace.with_sink t (fun () -> Tir.Engine.run machine ~mode:Tir.Engine.Linear prog)
  in
  t

let line_of_kernel k =
  let t = trace_kernel k in
  let forest = Obs.Export.tree_of_events (Obs.Trace.events t) in
  let names = Obs.Metrics.names (Obs.Metrics.snapshot ()) in
  Printf.sprintf "%s|%s|%s" k.Tir.Kernels.name
    (Obs.Export.render_forest forest)
    (String.concat "," names)

(* {1 The golden table} *)

let test_golden () =
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  Obs.Clock.fixed ();
  let actual = List.map line_of_kernel Tir.Kernels.all in
  if Sys.getenv_opt "OBS_GOLDEN_REGEN" <> None then begin
    print_endline "=== OBS GOLDEN BEGIN ===";
    List.iter print_endline actual;
    print_endline "=== OBS GOLDEN END ==="
  end;
  let expected =
    String.split_on_char '\n' golden |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int)
    "table covers every kernel" (List.length Tir.Kernels.all) (List.length expected);
  List.iter2
    (fun want got ->
      let kernel = List.hd (String.split_on_char '|' want) in
      Alcotest.(check string) (kernel ^ " span tree + metric names") want got)
    expected actual

(* {1 Chrome trace_event schema} *)

let check_event_schema kernel = function
  | Obs.Export.Obj fields ->
      let str k =
        match List.assoc_opt k fields with Some (Obs.Export.Str s) -> Some s | _ -> None
      in
      let num k =
        match List.assoc_opt k fields with Some (Obs.Export.Num _) -> true | _ -> false
      in
      (match str "name" with
      | Some _ -> ()
      | None -> Alcotest.failf "%s: event without a string name" kernel);
      (match str "ph" with
      | Some ("B" | "E" | "i") -> ()
      | Some ph -> Alcotest.failf "%s: unexpected phase %S" kernel ph
      | None -> Alcotest.failf "%s: event without a phase" kernel);
      List.iter
        (fun k -> if not (num k) then Alcotest.failf "%s: event missing numeric %S" kernel k)
        [ "ts"; "pid"; "tid" ];
      (match List.assoc_opt "args" fields with
      | None | Some (Obs.Export.Obj _) -> ()
      | Some _ -> Alcotest.failf "%s: args is not an object" kernel)
  | _ -> Alcotest.failf "%s: traceEvents element is not an object" kernel

let test_chrome_schema () =
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  Obs.Clock.fixed ();
  List.iter
    (fun (k : Tir.Kernels.kernel) ->
      let name = k.Tir.Kernels.name in
      let t = trace_kernel k in
      let events = Obs.Trace.events t in
      if events = [] then Alcotest.failf "%s: empty trace" name;
      let json = Obs.Export.chrome_json events in
      match Obs.Export.parse_json json with
      | Error e -> Alcotest.failf "%s: invalid JSON: %s" name e
      | Ok (Obs.Export.Obj fields) -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Obs.Export.Arr elems) ->
              Alcotest.(check int)
                (name ^ " event count") (List.length events) (List.length elems);
              List.iter (check_event_schema name) elems
          | _ -> Alcotest.failf "%s: no traceEvents array" name)
      | Ok _ -> Alcotest.failf "%s: top level is not an object" name)
    Tir.Kernels.all

(* Timestamps under the fixed clock are strictly increasing, so B/E
   pairs are well-nested for the Chrome viewer. *)
let test_monotonic_timestamps () =
  Fun.protect ~finally:Obs.Clock.reset @@ fun () ->
  Obs.Clock.fixed ();
  let t = trace_kernel (Tir.Kernels.find "gemm") in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
        a.Obs.Trace.ts < b.Obs.Trace.ts && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (strictly_increasing (Obs.Trace.events t))

let () =
  Alcotest.run "obs_golden"
    (Shuffle_support.maybe_shuffle
       [
         ( "golden",
           [
             Alcotest.test_case "span trees + metric names vs seed" `Quick test_golden;
             Alcotest.test_case "chrome trace_event schema, all kernels" `Quick
               test_chrome_schema;
             Alcotest.test_case "monotonic timestamps" `Quick test_monotonic_timestamps;
           ] );
       ])
