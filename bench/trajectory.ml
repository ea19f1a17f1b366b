(* Perf-trajectory diff: compare a fresh Bechamel JSON dump against the
   last committed BENCH_*.json snapshot and fail on regressions.

   The committed snapshots form the repo's performance history — one
   BENCH_NNN.json per PR that touched performance — and this tool is
   the CI gate that keeps the trajectory monotone: every row present in
   both files is reported, and the {e pinned} rows (the F2 substrate
   rows, which are deterministic enough for CI) must not regress by
   more than the threshold. *)

let pinned =
  [
    "ll/f2/factorize-16";
    "ll/f2/factorize-62";
    "ll/f2/solve-with-x64";
    "ll/f2/pseudo-invert-factored";
  ]

(* The dump format is one row per line, exactly as the bench harness's
   [write_json] emits it:

     {"name": "ll/...", "ns_per_run": 123.4},

   A hand-rolled line parser keeps this dependency-free. *)
let parse_file file =
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       let line =
         if String.length line > 0 && line.[String.length line - 1] = ',' then
           String.sub line 0 (String.length line - 1)
         else line
       in
       if String.length line > 0 && line.[0] = '{' then
         try
           Scanf.sscanf line "{%S: %S, %S: %f}" (fun k1 name k2 ns ->
               if k1 = "name" && k2 = "ns_per_run" then rows := (name, ns) :: !rows)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

(* Newest committed snapshot by numeric suffix, e.g. BENCH_006.json. *)
let default_baseline () =
  Sys.readdir "."
  |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 10
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.rev
  |> function
  | [] -> None
  | f :: _ -> Some f

let pct_change ~baseline ~current = 100.0 *. (current -. baseline) /. baseline

let run baseline current threshold =
  let base_rows = parse_file baseline and cur_rows = parse_file current in
  if base_rows = [] then (
    Printf.eprintf "trajectory: no rows parsed from baseline %s\n" baseline;
    exit 2);
  if cur_rows = [] then (
    Printf.eprintf "trajectory: no rows parsed from current %s\n" current;
    exit 2);
  Printf.printf "trajectory: %s (baseline) -> %s (current), threshold %.0f%%\n\n" baseline
    current threshold;
  Printf.printf "%-48s %14s %14s %9s\n" "benchmark" "baseline ns" "current ns" "delta";
  let failures = ref [] in
  List.iter
    (fun (name, cur) ->
      match List.assoc_opt name base_rows with
      | None -> Printf.printf "%-48s %14s %14.1f %9s\n" name "-" cur "new"
      | Some base ->
          let d = pct_change ~baseline:base ~current:cur in
          let is_pinned = List.mem name pinned in
          let flag =
            if is_pinned && d > threshold then (
              failures := (name, base, cur, d) :: !failures;
              "  REGRESSED")
            else if is_pinned then "  pinned"
            else ""
          in
          Printf.printf "%-48s %14.1f %14.1f %+8.1f%%%s\n" name base cur d flag)
    cur_rows;
  List.iter
    (fun name ->
      if not (List.mem_assoc name cur_rows) then
        Printf.printf "%-48s %s\n" name "missing from current run"
    )
    pinned;
  (* The headline ratios the snapshots exist to track. *)
  let ratio fast slow rows =
    match (List.assoc_opt fast rows, List.assoc_opt slow rows) with
    | Some f, Some s when f > 0.0 -> Some (s /. f)
    | _ -> None
  in
  Printf.printf "\nspeedup ratios (current run):\n";
  List.iter
    (fun (label, fast, slow) ->
      match ratio fast slow cur_rows with
      | Some r -> Printf.printf "  %-40s %.2fx\n" label r
      | None -> Printf.printf "  %-40s (missing rows)\n" label)
    [
      ("solve_with vs 64x solve", "ll/f2/solve-with-x64", "ll/f2/solve-single-x64");
      ("pseudo-invert factored vs not", "ll/f2/pseudo-invert-factored",
       "ll/f2/pseudo-invert-unfactored");
      ("planner swizzle warm vs cold", "ll/figure2/optimal-swizzle-warm",
       "ll/figure2/optimal-swizzle-cold");
      ("static cost vs interpretation (gemm)", "ll/static-cost-vs-interp-gemm/static",
       "ll/static-cost-vs-interp-gemm/interp");
    ];
  match !failures with
  | [] ->
      Printf.printf "\ntrajectory: OK (no pinned benchmark regressed past %.0f%%)\n" threshold
  | fs ->
      Printf.printf "\ntrajectory: FAILED — %d pinned benchmark(s) regressed:\n" (List.length fs);
      List.iter
        (fun (name, base, cur, d) ->
          Printf.printf "  %s: %.1f -> %.1f ns (%+.1f%%)\n" name base cur d)
        fs;
      exit 1

let () =
  let open Cmdliner in
  let baseline =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed snapshot to diff against (default: newest BENCH_*.json in the \
                current directory).")
  in
  let current =
    Arg.(
      value
      & opt string "bench-bechamel.json"
      & info [ "current" ] ~docv:"FILE" ~doc:"Fresh bench dump to evaluate.")
  in
  let threshold =
    Arg.(
      value & opt float 25.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Maximum tolerated regression on pinned benchmarks, in percent (default 25).")
  in
  let main baseline current threshold =
    let baseline =
      match baseline with
      | Some f -> f
      | None -> (
          match default_baseline () with
          | Some f -> f
          | None ->
              Printf.eprintf "trajectory: no BENCH_*.json snapshot found; pass --baseline\n";
              exit 2)
    in
    run baseline current threshold
  in
  let term = Term.(const main $ baseline $ current $ threshold) in
  let info =
    Cmd.info "trajectory"
      ~doc:"Diff a fresh benchmark run against the last committed BENCH_*.json snapshot."
  in
  exit (Cmd.eval (Cmd.v info term))
