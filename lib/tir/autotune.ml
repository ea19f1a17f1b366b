type config = { num_warps : int }

let default_configs = [ { num_warps = 1 }; { num_warps = 2 }; { num_warps = 4 }; { num_warps = 8 } ]

let run_config machine ~mode ?(strategy = Engine.Greedy) ~build ~size cfg =
  let prog = build ~size in
  Engine.run machine ~mode ~num_warps:cfg.num_warps ~strategy prog

(* Configurations are evaluated through {!Par_eval.map} (round-robin by
   index, merged in index order) and reduced with a strict [<], so the
   winner — and every tie-break — is identical for any domain count. *)
let best ?(domains = 1) ?strategy machine ~mode ~build ~size =
  let configs = Array.of_list default_configs in
  let n = Array.length configs in
  if n = 0 then invalid_arg "Autotune.best: no configurations";
  let eval i =
    let span =
      Obs.Span.enter "autotune/candidate"
        ~attrs:[ ("num_warps", string_of_int configs.(i).num_warps) ]
    in
    let r = run_config machine ~mode ?strategy ~build ~size configs.(i) in
    let t = Engine.time machine r in
    Obs.Span.exit span ~attrs:[ ("time", Printf.sprintf "%.6f" t) ];
    (t, (configs.(i), r))
  in
  let span = Obs.Span.enter "autotune/best" in
  let results = Par_eval.map ~domains n eval in
  let best_t = ref (fst results.(0)) and best_v = ref (snd results.(0)) in
  for i = 1 to n - 1 do
    let t, v = results.(i) in
    if t < !best_t then begin
      best_t := t;
      best_v := v
    end
  done;
  Obs.Span.exit span
    ~attrs:
      [
        ("candidates", string_of_int n);
        ("winner.num_warps", string_of_int (fst !best_v).num_warps);
      ];
  !best_v

let tuning_gain machine ~mode ~build ~size =
  let default = run_config machine ~mode ~build ~size { num_warps = 4 } in
  let _, tuned = best machine ~mode ~build ~size in
  Engine.time machine default /. Engine.time machine tuned
