(* layout_tool: a command-line explorer for linear layouts.

   Subcommands:
     show     - construct a layout and print its basis and matrix
     convert  - plan a conversion between two layouts
     swizzle  - compute the optimal shared-memory swizzle for a pair
     engine   - run the layout-engine pass pipeline on a built-in kernel
     passes   - list the engine passes
     lint     - run the static analyzers over an assignment

   Examples:
     layout_tool show --kind blocked --shape 16x16 --spt 2x2 --tpw 4x8 --warps 2x1
     layout_tool show --kind mma --shape 32x32 --bitwidth 16
     layout_tool convert --shape 32x32 --src blocked --dst mma
     layout_tool swizzle --shape 32x32 --byte-width 4
     layout_tool engine --kernel gemm --machine GH200 --timings
     layout_tool engine --kernel softmax --dump-after forward_propagate
     layout_tool engine --all --timings --json pass-timings.json *)

open Linear_layout
open Cmdliner

let parse_dims s =
  try Array.of_list (List.map int_of_string (String.split_on_char 'x' s))
  with _ -> failwith (Printf.sprintf "cannot parse dimension list %S (expected e.g. 16x16)" s)

let dims_conv =
  let parse s = try Ok (parse_dims s) with Failure m -> Error (`Msg m) in
  let print ppf a =
    Format.pp_print_string ppf
      (String.concat "x" (Array.to_list (Array.map string_of_int a)))
  in
  Arg.conv (parse, print)

let shape_arg =
  Arg.(value & opt dims_conv [| 32; 32 |] & info [ "shape" ] ~docv:"MxN" ~doc:"Tensor shape.")

let machine_arg =
  let parse s =
    match
      List.find_opt (fun (m : Gpusim.Machine.t) -> m.name = s) Gpusim.Machine.all_with_extras
    with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown machine %S (RTX4090, GH200, MI250, PVC)" s))
  in
  let print ppf (m : Gpusim.Machine.t) = Format.pp_print_string ppf m.name in
  Arg.(
    value
    & opt (conv (parse, print)) Gpusim.Machine.gh200
    & info [ "machine" ] ~docv:"NAME" ~doc:"Simulated platform.")

let build_layout ~kind ~shape ~spt ~tpw ~warps ~bitwidth ~order =
  if String.length kind > 0 && kind.[0] = '{' then
    (* Inline layout literal: {register=[(dim1:1)] ... -> dim0:16, dim1:16} *)
    match Parse.of_string (String.sub kind 1 (String.length kind - 2)) with
    | Ok l -> l
    | Error e -> failwith ("cannot parse layout literal: " ^ e)
  else
  match kind with
  | "blocked" ->
      Blocked.make
        {
          shape;
          size_per_thread = spt;
          threads_per_warp = tpw;
          warps_per_cta = warps;
          order;
        }
  | "default" ->
      Blocked.default ~elems_per_thread:spt.(Array.length spt - 1) ~warp_size:32
        ~num_warps:(Array.fold_left ( * ) 1 warps) shape
  | "mma" -> Mma.output ~bitwidth:32 ~warps ~shape ()
  | "mma-a" -> Mma.operand ~idx:0 ~bitwidth ~warps ~shape ()
  | "mma-b" -> Mma.operand ~idx:1 ~bitwidth ~warps ~shape ()
  | "mfma" -> Mma.mfma_output ~m:16 ~warps ~shape ()
  | "xmx" -> Mma.xmx_output ~warps ~shape ()
  | other -> (
      match Parse.of_string other with
      | Ok l -> l
      | Error _ -> failwith (Printf.sprintf "unknown layout kind %S" other))

let kind_arg name default =
  Arg.(
    value & opt string default
    & info [ name ] ~docv:"KIND"
        ~doc:
          "Layout kind: blocked, default, mma, mma-a, mma-b, mfma, or an inline layout \
           literal like 'register=[(dim0:1)] -> dim0:2'.")

let spt_arg = Arg.(value & opt dims_conv [| 1; 4 |] & info [ "spt" ] ~doc:"Size per thread.")
let tpw_arg = Arg.(value & opt dims_conv [| 8; 4 |] & info [ "tpw" ] ~doc:"Threads per warp.")
let warps_arg = Arg.(value & opt dims_conv [| 2; 2 |] & info [ "warps" ] ~doc:"Warps per CTA.")
let order_arg = Arg.(value & opt dims_conv [| 1; 0 |] & info [ "order" ] ~doc:"Dim order, fastest first.")

let bitwidth_arg =
  Arg.(value & opt int 16 & info [ "bitwidth" ] ~doc:"Element bit width for mma layouts.")

(* The byte width, checked against the machine: a width the planners
   cannot lay out is a usage error, not an exception out of the
   swizzle search. *)
let byte_width_arg =
  let check (machine : Gpusim.Machine.t) w =
    if Codegen.Conversion.valid_byte_width machine w then `Ok w
    else
      `Error
        ( true,
          Printf.sprintf "--byte-width %d: must be a power of two from 1 to %d on %s" w
            (machine.max_vec_bits / 8) machine.name )
  in
  Term.(
    ret
      (const check $ machine_arg
      $ Arg.(value & opt int 4 & info [ "byte-width" ] ~doc:"Element byte width.")))

(* {1 show} *)

let show kind shape spt tpw warps order bitwidth =
  let l = build_layout ~kind ~shape ~spt ~tpw ~warps ~bitwidth ~order in
  Format.printf "%a@.@." Layout.pp l;
  Printf.printf "literal: %s\n\n" (Parse.to_string l);
  Format.printf "matrix over F2:@.%a@.@." F2.Bitmatrix.pp (Layout.to_matrix l);
  Printf.printf "distributed (Def 4.10): %b\n" (Layout.is_distributed l);
  Printf.printf "invertible: %b\n" (Layout.is_invertible l);
  Printf.printf "contiguous elems/thread: %d\n" (Layout.num_consecutive l ~in_dim:Dims.register);
  let masks = Layout.free_variable_masks l in
  if List.exists (fun (_, m) -> m <> 0) masks then
    Printf.printf "broadcast (free) bits: %s\n"
      (String.concat ", "
         (List.filter_map
            (fun (d, m) -> if m = 0 then None else Some (Printf.sprintf "%s:0x%x" d m))
            masks));
  (match Check.distributed l with
  | [] -> ()
  | issues -> Format.printf "diagnostics:@.%a@." Diagnostics.pp_list issues);
  match Render.grid l with
  | g ->
      print_endline "";
      print_endline g
  | exception Invalid_argument _ -> ()

let show_cmd =
  Cmd.v (Cmd.info "show" ~doc:"Construct a layout and print it.")
    Term.(
      const show $ kind_arg "kind" "blocked" $ shape_arg $ spt_arg $ tpw_arg $ warps_arg
      $ order_arg $ bitwidth_arg)

(* {1 convert} *)

let convert machine shape src_kind dst_kind spt tpw warps order bitwidth byte_width =
  let mk kind = build_layout ~kind ~shape ~spt ~tpw ~warps ~bitwidth ~order in
  let src = mk src_kind and dst = mk dst_kind in
  let plan = Codegen.Conversion.plan machine ~src ~dst ~byte_width in
  Printf.printf "mechanism: %s\n" (Codegen.Conversion.mechanism_name plan.mechanism);
  let c = Codegen.Conversion.cost machine plan in
  Format.printf "events: %a@." Gpusim.Cost.pp c;
  Printf.printf "estimated cost: %.0f units\n" (Gpusim.Cost.estimate machine c);
  let legacy = Legacy.Convert.cost machine ~src ~dst ~byte_width in
  Printf.printf "legacy (padded shared) cost: %.0f units\n" (Gpusim.Cost.estimate machine legacy);
  (* Verify: run the lowered program on data, or prove a plan without
     a warp-level lowering (a global round trip) algebraically. *)
  if Codegen.Lower.lowerable plan then begin
    let d = Gpusim.Dist.init src ~f:(fun i -> i) in
    let d', _ = Codegen.Lower.run machine plan d in
    Printf.printf "verified on simulated data: %b\n"
      (Gpusim.Dist.consistent_with d' ~f:(fun i -> i))
  end
  else
    Printf.printf "proved algebraically: %b\n"
      ((Analysis.Transval.certify_plan machine plan).Analysis.Transval.verdict
      = Analysis.Transval.Proved)

let convert_cmd =
  Cmd.v (Cmd.info "convert" ~doc:"Plan a layout conversion.")
    Term.(
      const convert $ machine_arg $ shape_arg $ kind_arg "src" "blocked" $ kind_arg "dst" "mma"
      $ spt_arg $ tpw_arg $ warps_arg $ order_arg $ bitwidth_arg $ byte_width_arg)

(* {1 swizzle} *)

let swizzle machine shape byte_width =
  let src = Blocked.default ~elems_per_thread:4 ~warp_size:machine.Gpusim.Machine.warp_size
      ~num_warps:4 shape
  in
  let dst =
    Blocked.make
      {
        shape;
        size_per_thread = [| 4; 1 |];
        threads_per_warp = [| machine.Gpusim.Machine.warp_size / 4; 4 |];
        warps_per_cta = [| 1; 4 |];
        order = [| 0; 1 |];
      }
  in
  let s = Codegen.Swizzle_opt.optimal machine ~src ~dst ~byte_width in
  Format.printf "optimal memory layout:@.%a@." Layout.pp s.Codegen.Swizzle_opt.mem;
  Printf.printf "vec = %d elements, store wf/inst = %d, load wf/inst = %d\n"
    (1 lsl s.Codegen.Swizzle_opt.vec_bits)
    s.Codegen.Swizzle_opt.store_wavefronts s.Codegen.Swizzle_opt.load_wavefronts

let swizzle_cmd =
  Cmd.v (Cmd.info "swizzle" ~doc:"Compute an optimal shared-memory swizzle.")
    Term.(const swizzle $ machine_arg $ shape_arg $ byte_width_arg)

(* {1 lower} *)

let lower machine shape src_kind dst_kind spt tpw warps order bitwidth byte_width =
  let mk kind = build_layout ~kind ~shape ~spt ~tpw ~warps ~bitwidth ~order in
  let src = mk src_kind and dst = mk dst_kind in
  let plan = Codegen.Conversion.plan machine ~src ~dst ~byte_width in
  Printf.printf "// conversion via %s\n" (Codegen.Conversion.mechanism_name plan.mechanism);
  let program, _ = Codegen.Lower.conversion machine plan in
  Format.printf "%a" Gpusim.Isa.pp program;
  let d = Gpusim.Dist.init src ~f:(fun i -> i) in
  let d', cost = Codegen.Lower.run machine plan d in
  Printf.printf "// executed: correct=%b\n" (Gpusim.Dist.consistent_with d' ~f:(fun i -> i));
  Format.printf "// interpreter cost: %a@." Gpusim.Cost.pp cost

let lower_cmd =
  Cmd.v (Cmd.info "lower" ~doc:"Lower a conversion to the pseudo-ISA and execute it.")
    Term.(
      const lower $ machine_arg $ shape_arg $ kind_arg "src" "blocked" $ kind_arg "dst" "mma"
      $ spt_arg $ tpw_arg $ warps_arg $ order_arg $ bitwidth_arg $ byte_width_arg)

(* {1 metrics support} *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect planner/simulator metrics during the run and write the flat metrics \
           JSON to $(docv).")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* Run [f] with metrics collection when [metrics] names a file, writing
   the snapshot afterwards; otherwise just run [f]. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.Metrics.reset ();
      Obs.with_enabled (fun () ->
          Fun.protect
            ~finally:(fun () -> write_file path (Obs.Metrics.to_json (Obs.Metrics.snapshot ())))
            f)

(* {1 engine} *)

let strategy_arg =
  Arg.(
    value
    & opt (enum [ ("greedy", `Greedy); ("search", `Search) ]) `Greedy
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          "Layout-assignment strategy: $(b,greedy) (the Section 4.4 walk) or $(b,search) \
           (cost-driven beam search over the decision sites, never worse than greedy on \
           the search objective).")

let beam_arg =
  Arg.(value & opt int 4 & info [ "beam" ] ~docv:"N" ~doc:"Beam width for the search strategy.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "OCaml domains evaluating search branches in parallel (the result is \
           deterministic for any count).")

let engine machine kernel_name all autotune strategy beam domains passes_csv disabled
    dump_after lint_after timings json metrics =
  with_metrics metrics @@ fun () ->
  let pass_list =
    (match passes_csv with
    | None -> Tir.Passes.default
    | Some names ->
        List.map
          (fun n ->
            match Tir.Passes.find n with
            | Some p -> p
            | None ->
                failwith (Printf.sprintf "unknown pass %S (see `layout_tool passes')" n))
          names)
    |> List.filter (fun p -> not (List.mem (Tir.Passes.name p) disabled))
  in
  (* A customized pipeline may legitimately leave layouts unassigned;
     only verify the assignment when running the full default list. *)
  let custom = passes_csv <> None || disabled <> [] in
  let selected names name = List.mem "all" names || List.mem name names in
  (* After each selected pass: the lint sweep over the mid-pipeline
     state (per-pass analysis), then the dump of the state. *)
  let after_pass =
    if lint_after = [] && dump_after = [] then None
    else
      Some
        (fun name st ->
          if selected lint_after name then Tir.Validate.lint_hook name st;
          if selected dump_after name then
            Format.printf "=== after %s ===@.%a@." name Tir.Pass_manager.pp_state st)
  in
  let reports = ref [] (* newest first *) in
  let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
  List.iter
    (fun (k : Tir.Kernels.kernel) ->
      let size = List.hd k.Tir.Kernels.sizes in
      (if autotune && not all then
         let engine_strategy =
           match strategy with
           | `Greedy -> Tir.Engine.Greedy
           | `Search -> Tir.Engine.Search { Tir.Assign_search.beam; domains }
         in
         let cfg, _ =
           Tir.Autotune.best machine ~strategy:engine_strategy ~mode:Tir.Engine.Linear
             ~build:k.Tir.Kernels.build ~size
         in
         Printf.printf "autotuned num_warps: %d (gain %.2fx over the 4-warp default)\n"
           cfg.Tir.Autotune.num_warps
           (Tir.Autotune.tuning_gain machine ~mode:Tir.Engine.Linear
              ~build:k.Tir.Kernels.build ~size));
      (if all then Printf.printf "== %s ==\n" k.Tir.Kernels.name
       else
         let prog = k.Tir.Kernels.build ~size in
         Format.printf "%a@." Tir.Program.pp prog);
      let run mode name =
        let prog = k.Tir.Kernels.build ~size in
        (* The search strategy first explores on a private build, then the
           displayed run replays the winning script so the dump/lint/timing
           hooks below observe the winning assignment. *)
        let chooser, search_stats =
          match strategy with
          | `Greedy -> (None, None)
          | `Search ->
              let o =
                Tir.Assign_search.run machine ~mode
                  ~params:{ Tir.Assign_search.beam; domains }
                  (k.Tir.Kernels.build ~size)
              in
              ( Some (Tir.Assign_search.chooser_of_script o.Tir.Assign_search.script),
                Some o.Tir.Assign_search.stats )
        in
        let st = Tir.Pass.init machine ~mode ?chooser prog in
        let report = Tir.Pass_manager.run (Tir.Pass_manager.config ?after_pass pass_list) st in
        let r = Tir.Pass.result st in
        if lint_after <> [] && st.Tir.Pass.diags <> [] then
          Format.printf "%a@." Diagnostics.pp_list st.Tir.Pass.diags;
        (if (not custom) && mode = Tir.Engine.Linear then
           match Diagnostics.errors (Tir.Verifier.program prog) with
           | [] -> ()
           | errors -> raise (Tir.Validate.Invalid errors));
        Printf.printf "%-7s converts=%d noop=%d local_load=%d local_store=%d time=%.0f\n" name
          r.Tir.Engine.converts r.Tir.Engine.noop_converts r.Tir.Engine.local_loads
          r.Tir.Engine.local_stores (Tir.Engine.time machine r);
        List.iter
          (fun u -> Printf.printf "        unsupported: %s\n" u)
          r.Tir.Engine.unsupported;
        (match search_stats with
        | None -> ()
        | Some (s : Tir.Assign_search.stats) ->
            Printf.printf
              "        search: sites=%d explored=%d pruned=%d objective %.0f -> %.0f\n"
              s.Tir.Assign_search.sites s.Tir.Assign_search.explored
              s.Tir.Assign_search.pruned s.Tir.Assign_search.greedy_cost
              s.Tir.Assign_search.best_cost);
        if timings then Format.printf "%a" Tir.Pass_manager.pp_report report;
        reports := (k.Tir.Kernels.name, name, report) :: !reports;
        Tir.Engine.time machine r
      in
      let tl = run Tir.Engine.Linear "linear" in
      let tg = run Tir.Engine.Legacy_mode "legacy" in
      Printf.printf "speedup: %.2fx\n" (tg /. tl))
    kernels;
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc "{\"machine\":\"%s\",\"runs\":[%s]}\n"
        (Diagnostics.json_escape machine.Gpusim.Machine.name)
        (String.concat ","
           (List.rev_map
              (fun (kernel, mode, report) ->
                Printf.sprintf "{\"kernel\":\"%s\",\"mode\":\"%s\",\"report\":%s}"
                  (Diagnostics.json_escape kernel)
                  mode
                  (Tir.Pass_manager.to_json report))
              !reports));
      close_out oc

let kernel_arg =
  Arg.(
    value & opt string "gemm"
    & info [ "kernel" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Kernel to run: %s."
             (String.concat ", " (List.map (fun k -> k.Tir.Kernels.name) Tir.Kernels.all))))

let autotune_arg =
  Arg.(value & flag & info [ "autotune" ] ~doc:"Search num_warps with the cost model first.")

let passes_sel_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "passes" ] ~docv:"P1,P2,..."
        ~doc:"Run exactly this comma-separated pass list instead of the default pipeline.")

let disable_pass_arg =
  Arg.(
    value & opt_all string []
    & info [ "disable-pass" ] ~docv:"PASS"
        ~doc:"Skip the named pass (repeatable); see $(b,layout_tool passes) for names.")

let dump_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Print the layout assignment and running totals after the named pass \
           (repeatable; $(b,all) dumps after every pass).")

let lint_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "lint-after" ] ~docv:"PASS"
        ~doc:
          "Run the LL2xx-LL5xx lint sweep over the mid-pipeline state after the named \
           pass (repeatable; $(b,all) lints after every pass).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Print the per-pass instrumentation report (wall-clock, diagnostics, plan-cache \
           and layout-memo hit/miss deltas).")

let engine_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the per-pass timing reports as JSON to $(docv).")

let engine_all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Run every built-in kernel (overrides --kernel).")

let engine_cmd =
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Run the layout-engine pass pipeline on a built-in kernel (or --all), with \
          optional per-pass timings, dump-after-pass and pass selection.")
    Term.(
      const engine $ machine_arg $ kernel_arg $ engine_all_arg $ autotune_arg
      $ strategy_arg $ beam_arg $ domains_arg $ passes_sel_arg $ disable_pass_arg
      $ dump_after_arg $ lint_after_arg $ timings_arg $ engine_json_arg $ metrics_arg)

(* {1 trace} *)

let trace machine kernel_name all out metrics =
  Option.iter (fun _ -> Obs.Metrics.reset ()) metrics;
  let sink = Obs.Trace.create () in
  let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
  Obs.Trace.with_sink sink (fun () ->
      List.iter
        (fun (k : Tir.Kernels.kernel) ->
          let size = List.hd k.Tir.Kernels.sizes in
          let span =
            Obs.Span.enter ("kernel/" ^ k.Tir.Kernels.name)
              ~attrs:[ ("size", string_of_int size) ]
          in
          let prog = k.Tir.Kernels.build ~size in
          let r = Tir.Engine.run machine ~mode:Tir.Engine.Linear prog in
          Obs.Span.exit span
            ~attrs:
              [
                ("converts", string_of_int r.Tir.Engine.converts);
                ("time", Printf.sprintf "%.0f" (Tir.Engine.time machine r));
              ])
        kernels);
  write_file out (Obs.Export.chrome_json (Obs.Trace.events sink));
  Printf.printf "wrote %d trace events for %d kernel(s) to %s\n" (Obs.Trace.length sink)
    (List.length kernels) out;
  if Obs.Trace.dropped sink > 0 then
    Printf.printf "warning: ring buffer dropped %d events\n" (Obs.Trace.dropped sink);
  Option.iter
    (fun path -> write_file path (Obs.Metrics.to_json (Obs.Metrics.snapshot ())))
    metrics

let trace_kernel_arg =
  Arg.(
    value & pos 0 string "gemm"
    & info [] ~docv:"KERNEL"
        ~doc:"Kernel to trace (see $(b,--kernel) on the engine subcommand for names).")

let trace_out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Where to write the Chrome trace_event JSON (default trace.json).")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the layout engine on a kernel (or $(b,--all)) with the observability layer \
          enabled and export a Chrome trace_event JSON, loadable in chrome://tracing or \
          https://ui.perfetto.dev.")
    Term.(const trace $ machine_arg $ trace_kernel_arg $ engine_all_arg $ trace_out_arg
          $ metrics_arg)

(* {1 passes} *)

let passes () =
  List.iter
    (fun p -> Printf.printf "%-18s %s\n" (Tir.Passes.name p) (Tir.Passes.description p))
    Tir.Passes.default

let passes_cmd =
  Cmd.v
    (Cmd.info "passes" ~doc:"List the layout-engine passes in pipeline order.")
    Term.(const passes $ const ())

(* {1 lint} *)

let lint machine kernel_name all conv shape src_kind dst_kind spt tpw warps order bitwidth
    byte_width json metrics =
  (* [exit] would bypass [with_metrics]'s finalizer, so the failure is
     returned and acted on outside it. *)
  let failed =
    with_metrics metrics @@ fun () ->
  let entries = ref [] in
  let record label ds = entries := (label, ds) :: !entries in
  (if conv then (
     let mk kind = build_layout ~kind ~shape ~spt ~tpw ~warps ~bitwidth ~order in
     let src = mk src_kind and dst = mk dst_kind in
     let ds = Check.convertible ~src ~dst in
     let ds =
       if Diagnostics.has_errors ds then ds
       else
         ds @ Tir.Lint.plan machine (Codegen.Conversion.plan machine ~src ~dst ~byte_width)
     in
     record (Printf.sprintf "%s -> %s" src_kind dst_kind) ds)
   else
     let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
     List.iter
       (fun k ->
         let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
         let result = Tir.Engine.run machine ~mode:Tir.Engine.Linear prog in
         record k.Tir.Kernels.name (Tir.Validate.analyze machine prog ~result))
       kernels);
  let entries = List.rev !entries in
  List.iter (fun (label, ds) -> Format.printf "%s: %a@." label Diagnostics.pp_list ds) entries;
  let flat = List.concat_map snd entries in
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Diagnostics.to_json flat);
      output_char oc '\n';
      close_out oc);
  let errors = Diagnostics.errors flat in
  Printf.printf "%d diagnostic(s), %d error(s)\n" (List.length flat) (List.length errors);
  errors <> []
  in
  if failed then exit 1

let all_arg =
  Arg.(value & flag & info [ "all" ] ~doc:"Lint every built-in kernel (overrides --kernel).")

let conv_arg =
  Arg.(
    value & flag
    & info [ "conv" ]
        ~doc:"Lint a single conversion built from --src/--dst instead of a kernel.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the diagnostics as JSON to $(docv).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static analyzers (races, bank certification, resources, coalescing, \
          broadcast redundancy) over a kernel's layout assignment or a single conversion; \
          exits 1 on any error-severity diagnostic.")
    Term.(
      const lint $ machine_arg $ kernel_arg $ all_arg $ conv_arg $ shape_arg
      $ kind_arg "src" "blocked" $ kind_arg "dst" "mma" $ spt_arg $ tpw_arg $ warps_arg
      $ order_arg $ bitwidth_arg $ byte_width_arg $ json_arg $ metrics_arg)

(* {1 search} *)

let search machine kernel_name all beam domains json metrics =
  let failed =
    with_metrics metrics @@ fun () ->
    let machines = if all then Gpusim.Machine.all_with_extras else [ machine ] in
    let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
    let params = { Tir.Assign_search.beam; domains } in
    let rows = ref [] (* newest first *) in
    let failed = ref false in
    let checked = ref 0 and wins = ref 0 and not_worse = ref 0 in
    let lint_errors m prog result =
      List.length (Diagnostics.errors (Tir.Validate.analyze m prog ~result))
    in
    List.iter
      (fun (m : Gpusim.Machine.t) ->
        List.iter
          (fun (k : Tir.Kernels.kernel) ->
            List.iter
              (fun (mode, mode_name) ->
                let size = List.hd k.Tir.Kernels.sizes in
                let build () = k.Tir.Kernels.build ~size in
                let sprog = build () in
                let o = Tir.Assign_search.run m ~mode ~params sprog in
                let s = o.Tir.Assign_search.stats in
                (* Certification of the winning script, and the lint sweep
                   relative to the greedy baseline: search must never trade
                   analyzer cleanliness for cost. *)
                let cert =
                  Tir.Certify.run m ~mode
                    ~chooser:
                      (Tir.Assign_search.chooser_of_script o.Tir.Assign_search.script)
                    (build ())
                in
                let cert_status = Tir.Certify.status cert in
                let gprog = build () in
                let gres = Tir.Engine.run m ~mode gprog in
                let greedy_lint = lint_errors m gprog gres in
                let search_lint = lint_errors m sprog o.Tir.Assign_search.result in
                let worse = s.Tir.Assign_search.best_cost > s.Tir.Assign_search.greedy_cost
                and win = s.Tir.Assign_search.best_cost < s.Tir.Assign_search.greedy_cost
                and lint_regressed = search_lint > greedy_lint in
                incr checked;
                if win then incr wins;
                if not worse then incr not_worse;
                if worse || cert_status = "refuted" || lint_regressed then failed := true;
                let ratio =
                  if s.Tir.Assign_search.greedy_cost = 0. then 1.
                  else s.Tir.Assign_search.best_cost /. s.Tir.Assign_search.greedy_cost
                in
                Printf.printf
                  "%-22s %-8s %-7s greedy %9.0f  search %9.0f  (%.3fx)  sites %2d \
                   explored %3d pruned %3d  %-7s %s%s\n"
                  k.Tir.Kernels.name m.Gpusim.Machine.name mode_name
                  s.Tir.Assign_search.greedy_cost s.Tir.Assign_search.best_cost ratio
                  s.Tir.Assign_search.sites s.Tir.Assign_search.explored
                  s.Tir.Assign_search.pruned cert_status
                  (if lint_regressed then "LINT-REGRESSED" else "lint-ok")
                  (if worse then "  WORSE-THAN-GREEDY" else "");
                rows :=
                  Printf.sprintf
                    "{\"kernel\":\"%s\",\"machine\":\"%s\",\"mode\":\"%s\",\"greedy_cost\":%.6f,\"search_cost\":%.6f,\"ratio\":%.6f,\"sites\":%d,\"explored\":%d,\"pruned\":%d,\"script\":[%s],\"certified\":\"%s\",\"lint_ok\":%b}"
                    (Diagnostics.json_escape k.Tir.Kernels.name)
                    (Diagnostics.json_escape m.Gpusim.Machine.name)
                    mode_name s.Tir.Assign_search.greedy_cost
                    s.Tir.Assign_search.best_cost ratio s.Tir.Assign_search.sites
                    s.Tir.Assign_search.explored s.Tir.Assign_search.pruned
                    (String.concat ","
                       (List.map string_of_int o.Tir.Assign_search.script))
                    (Diagnostics.json_escape cert_status)
                    (not lint_regressed)
                  :: !rows)
              [ (Tir.Engine.Linear, "linear"); (Tir.Engine.Legacy_mode, "legacy") ])
          kernels)
      machines;
    (match json with
    | None -> ()
    | Some path ->
        write_file path (Printf.sprintf "[%s]" (String.concat "," (List.rev !rows))));
    Printf.printf "search <= greedy on %d/%d row(s), strictly better on %d\n" !not_worse
      !checked !wins;
    !failed
  in
  if failed then exit 1

let search_cmd =
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Compare the beam-search layout-assignment strategy against the greedy baseline \
          on a kernel or $(b,--all) kernels x machines x modes: search objective vs \
          greedy objective (search is never worse), decision sites explored/pruned, \
          certification of the winning script and the lint sweep relative to greedy. \
          Exits 1 if search is worse anywhere, a winner is refuted by translation \
          validation, or a winner has more lint errors than greedy.")
    Term.(
      const search $ machine_arg $ kernel_arg $ all_arg $ beam_arg $ domains_arg
      $ json_arg $ metrics_arg)

(* {1 certify} *)

let certify machine kernel_name all pass_filter json metrics =
  let failed =
    with_metrics metrics @@ fun () ->
    let machines = if all then Gpusim.Machine.all_with_extras else [ machine ] in
    let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
    let rows = ref [] (* newest first *) in
    let failed = ref false in
    let checked = ref 0 and proved = ref 0 and refuted = ref 0 in
    List.iter
      (fun (m : Gpusim.Machine.t) ->
        List.iter
          (fun (k : Tir.Kernels.kernel) ->
            List.iter
              (fun (mode, mode_name) ->
                let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
                let r = Tir.Certify.run m ~mode prog in
                (* --pass restricts the verdict to one pass's certificates
                   (plan certificates belong to no pass and are dropped). *)
                let r =
                  match pass_filter with
                  | None -> r
                  | Some p ->
                      {
                        r with
                        Tir.Certify.pass_certs =
                          List.filter
                            (fun (c : Tir.Certify.pass_cert) -> c.Tir.Certify.pass = p)
                            r.Tir.Certify.pass_certs;
                        plan_certs = [];
                        diags =
                          List.filter
                            (fun (d : Diagnostics.t) -> d.Diagnostics.pass = Some p)
                            r.Tir.Certify.diags;
                      }
                in
                let errs = Tir.Certify.cert_errors r in
                incr checked;
                (match Tir.Certify.status r with
                | "proved" -> incr proved
                | "refuted" -> incr refuted
                | _ -> ());
                Printf.printf "%-22s %-8s %-7s %-8s %d pass cert(s), %d plan cert(s)\n"
                  k.Tir.Kernels.name m.Gpusim.Machine.name mode_name
                  (Tir.Certify.status r)
                  (List.length r.Tir.Certify.pass_certs)
                  (List.length r.Tir.Certify.plan_certs);
                if errs <> [] then begin
                  failed := true;
                  Format.printf "%a@." Diagnostics.pp_list errs
                end;
                rows := Tir.Certify.to_json ~kernel:k.Tir.Kernels.name ~machine:m.name r :: !rows)
              [ (Tir.Engine.Linear, "linear"); (Tir.Engine.Legacy_mode, "legacy") ])
          kernels)
      machines;
    (match json with
    | None -> ()
    | Some path ->
        write_file path (Printf.sprintf "[%s]" (String.concat "," (List.rev !rows))));
    Printf.printf "%d run(s) certified: %d proved, %d refuted, %d skipped\n" !checked !proved
      !refuted
      (!checked - !proved - !refuted);
    !failed
  in
  if failed then exit 1

let pass_filter_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pass" ] ~docv:"PASS"
        ~doc:
          "Restrict the verdict to the named pass's certificates (see \
           $(b,layout_tool passes) for names).")

let certify_cmd =
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Translation validation: prove every engine pass semantics-preserving \
          (snapshot/diff over F2, codes LL620-LL623) and every materialized conversion \
          plan correct against its claimed conversion map (symbolic execution of the \
          lowered ISA, codes LL650-LL652), for a kernel or $(b,--all) kernels on all \
          machines; exits 1 on any refutation.")
    Term.(
      const certify $ machine_arg $ kernel_arg $ all_arg $ pass_filter_arg $ json_arg
      $ metrics_arg)

(* {1 cost} *)

let cost machine kernel_name all attribution json metrics =
  let failed =
    with_metrics metrics @@ fun () ->
    let machines = if all then Gpusim.Machine.all_with_extras else [ machine ] in
    let kernels = if all then Tir.Kernels.all else [ Tir.Kernels.find kernel_name ] in
    let rows = ref [] (* newest first *) in
    let any_error = ref false in
    List.iter
      (fun (m : Gpusim.Machine.t) ->
        List.iter
          (fun (k : Tir.Kernels.kernel) ->
            List.iter
              (fun (mode, mode_name) ->
                let prog = k.Tir.Kernels.build ~size:(List.hd k.Tir.Kernels.sizes) in
                let r = Tir.Engine.run m ~mode prog in
                let plans = ref 0 and lowered = ref 0 in
                let static_units = ref 0.0 and model_units = ref 0.0 in
                let footprint = ref 0 and peak = ref 0 in
                let diags = ref [] in
                List.iter
                  (fun (c : Tir.Engine.conversion_info) ->
                    match c.Tir.Engine.plan with
                    | None -> ()
                    | Some plan -> (
                        incr plans;
                        match Analysis.Static_cost.lower_plan m plan with
                        | None -> ()
                        | Some ((program, _) as low) ->
                            incr lowered;
                            let a = Analysis.Static_cost.analyze m program in
                            static_units :=
                              !static_units +. a.Analysis.Static_cost.estimate;
                            model_units :=
                              !model_units
                              +. Gpusim.Cost.estimate m c.Tir.Engine.conv_cost;
                            let rep = Analysis.Resource_check.lowered m low in
                            footprint :=
                              max !footprint rep.Analysis.Resource_check.footprint_bytes;
                            peak := max !peak rep.Analysis.Resource_check.peak_live_slots;
                            diags :=
                              !diags
                              @ List.map
                                  (Diagnostics.with_loc (Diagnostics.Tir_instr c.Tir.Engine.at))
                                  rep.Analysis.Resource_check.diagnostics;
                            if attribution && not all then
                              Format.printf "%%%d %s:@.@[<v>%a@]@." c.Tir.Engine.at
                                c.Tir.Engine.mechanism Analysis.Static_cost.pp a))
                  r.Tir.Engine.conversions;
                if Diagnostics.has_errors !diags then any_error := true;
                Printf.printf
                  "%-22s %-8s %-7s %2d/%-2d plan(s) lowered  static %8.0f  model %8.0f  \
                   smem %6d B  peak %2d slot(s)%s\n"
                  k.Tir.Kernels.name m.Gpusim.Machine.name mode_name !lowered !plans
                  !static_units !model_units !footprint !peak
                  (match List.length !diags with
                  | 0 -> ""
                  | n -> Printf.sprintf "  %d diagnostic(s)" n);
                if !diags <> [] then Format.printf "%a@." Diagnostics.pp_list !diags;
                rows :=
                  Printf.sprintf
                    "{\"kernel\":\"%s\",\"machine\":\"%s\",\"mode\":\"%s\",\"plans\":%d,\"lowered\":%d,\"static_cost\":%.6f,\"model_cost\":%.6f,\"footprint_bytes\":%d,\"peak_live_slots\":%d,\"diagnostics\":%s}"
                    (Diagnostics.json_escape k.Tir.Kernels.name)
                    (Diagnostics.json_escape m.Gpusim.Machine.name)
                    mode_name !plans !lowered !static_units !model_units !footprint !peak
                    (Diagnostics.to_json !diags)
                  :: !rows)
              [ (Tir.Engine.Linear, "linear"); (Tir.Engine.Legacy_mode, "legacy") ])
          kernels)
      machines;
    (match json with
    | None -> ()
    | Some path ->
        write_file path (Printf.sprintf "[%s]" (String.concat "," (List.rev !rows))));
    !any_error
  in
  if failed then exit 1

let attribution_arg =
  Arg.(
    value & flag
    & info [ "attribution" ]
        ~doc:
          "Print the per-instruction cost attribution table of every lowered plan \
           (single-kernel runs only).")

let cost_cmd =
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Static cost and resource analysis: price every materialized conversion's \
          lowered instruction stream without executing it (exactly what the interpreter \
          would account: both apply the ISA's one price rule), and report \
          shared-memory footprint, live ranges and register pressure (codes \
          LL800-LL807). Exits 1 on any error-severity LL8xx diagnostic.")
    Term.(
      const cost $ machine_arg $ kernel_arg $ all_arg $ attribution_arg $ json_arg
      $ metrics_arg)

(* {1 serve} *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to serve on.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "Plan-store file: loaded (with Transval re-verification) before serving, saved \
           back with fresh certificates on shutdown.")

let serve_domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains in the request pool.")

let serve socket store domains metrics =
  with_metrics metrics @@ fun () ->
  let srv = Tir.Server.start ~domains ?store ~socket () in
  let r = Tir.Server.store_report srv in
  List.iter (fun d -> Format.printf "%a@." Diagnostics.pp d) r.Codegen.Plan_store.diags;
  Printf.printf "serving on %s (%d domains; store: %d plans loaded, %d rejected)\n%!" socket
    domains r.Codegen.Plan_store.loaded r.Codegen.Plan_store.rejected;
  (* Runs until a SHUTDOWN request: drain, save the store, exit. *)
  Tir.Server.wait srv;
  print_endline "server stopped"

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the layout-compilation daemon: a Unix-domain-socket service in front of \
          the shared plan cache (PLAN / ENGINE / STATS / SHUTDOWN requests in 4-byte \
          length-prefixed frames). With --store, certified plans persist across \
          restarts.")
    Term.(const serve $ socket_arg $ store_arg $ serve_domains_arg $ metrics_arg)

let () =
  let info =
    Cmd.info "layout_tool" ~doc:"Explore linear layouts over F2 (ASPLOS'26 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            show_cmd;
            convert_cmd;
            swizzle_cmd;
            lower_cmd;
            engine_cmd;
            search_cmd;
            trace_cmd;
            passes_cmd;
            lint_cmd;
            certify_cmd;
            cost_cmd;
            serve_cmd;
          ]))
