(* Static-cost gate: pin the exact static cost of a few kernels against
   the `layout_tool cost --all --json` artifact.

   Where trajectory.exe tolerates timing noise on its pinned Bechamel
   rows, static costs are exact integers computed by abstract
   interpretation — fully deterministic per (kernel, machine, mode) —
   so this gate pins them to the digit.  A drift means the engine now
   emits different conversion streams (or the analyzer changed): update
   the pins in the same commit, with the change that moved them. *)

let pinned =
  [
    (* kernel, machine, mode, static_cost *)
    ("gemm", "RTX4090", "linear", 1784.0);
    ("gemm", "GH200", "linear", 1784.0);
    ("attention_bwd", "GH200", "linear", 3096.0);
    ("attention_bwd", "MI250", "linear", 1144.0);
    ("rope", "PVC", "linear", 3840.0);
  ]

(* The artifact is a single JSON line of rows in fixed key order
   ("kernel","machine","mode",...,"static_cost",...).  An anchor search
   keeps this dependency-free, like trajectory.exe's line parser. *)
let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let find_from hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some (i + nn)
    else go (i + 1)
  in
  go from

let static_cost_of json ~kernel ~machine ~mode =
  let anchor =
    Printf.sprintf "\"kernel\":\"%s\",\"machine\":\"%s\",\"mode\":\"%s\"" kernel machine mode
  in
  match find_from json anchor 0 with
  | None -> None
  | Some at -> (
      match find_from json "\"static_cost\":" at with
      | None -> None
      | Some v ->
          let stop = ref v in
          while !stop < String.length json && json.[!stop] <> ',' && json.[!stop] <> '}' do
            incr stop
          done;
          float_of_string_opt (String.sub json v (!stop - v)))

let run current =
  let json =
    try read_file current
    with Sys_error e ->
      Printf.eprintf "cost-gate: cannot read %s: %s\n" current e;
      exit 2
  in
  Printf.printf "cost-gate: %s, %d pinned row(s)\n\n" current (List.length pinned);
  Printf.printf "%-28s %-8s %-7s %12s %12s\n" "kernel" "machine" "mode" "pinned" "current";
  let failures = ref 0 in
  List.iter
    (fun (kernel, machine, mode, expected) ->
      match static_cost_of json ~kernel ~machine ~mode with
      | None ->
          incr failures;
          Printf.printf "%-28s %-8s %-7s %12.0f %12s  MISSING\n" kernel machine mode expected
            "-"
      | Some got ->
          let ok = Float.abs (got -. expected) < 1e-6 in
          if not ok then incr failures;
          Printf.printf "%-28s %-8s %-7s %12.0f %12.0f%s\n" kernel machine mode expected got
            (if ok then "" else "  DRIFTED"))
    pinned;
  if !failures = 0 then Printf.printf "\ncost-gate: OK (all pinned static costs exact)\n"
  else begin
    Printf.printf
      "\ncost-gate: FAILED — %d pinned row(s) drifted.  If the conversion streams changed \
       intentionally, update the pins in bench/cost_gate.ml in the same commit.\n"
      !failures;
    exit 1
  end

let () =
  let open Cmdliner in
  let current =
    Arg.(
      value
      & opt string "static-cost.json"
      & info [ "current" ] ~docv:"FILE"
          ~doc:"Artifact written by 'layout_tool cost --all --json FILE'.")
  in
  let term = Term.(const run $ current) in
  let info =
    Cmd.info "cost_gate"
      ~doc:"Pin exact static costs of selected kernels against the cost artifact."
  in
  exit (Cmd.eval (Cmd.v info term))
