open Linear_layout

(* Backward may-feed-a-reduction dataflow: a value whose copies are
   deduplicated by a downstream reduce (or consumed by a dot, whose
   operands are deliberately replicated across the k fragments) is not
   redundantly broadcast.  One reverse pass suffices because programs
   are SSA and uses always have larger ids than defs. *)
let feeds_reduction prog =
  let n = Program.length prog in
  let feeds = Array.make n false in
  for i = n - 1 downto 0 do
    let mark s = feeds.(s) <- true in
    match (Program.instr prog i).Program.node with
    | Program.Reduce { src; _ } | Program.Scan { src; _ } -> mark src
    | Program.Dot { a; b } ->
        mark a;
        mark b
    | node when feeds.(i) -> (
        match node with
        | Program.Elementwise { srcs; _ } -> List.iter mark srcs
        | Program.Trans { src; _ }
        | Program.Reshape { src }
        | Program.Expand_dims { src; _ }
        | Program.Broadcast { src }
        | Program.Split { src; _ }
        | Program.Convert { src } ->
            mark src
        | Program.Join { a; b } ->
            mark a;
            mark b
        | Program.Gather { src; index; _ } ->
            mark src;
            mark index
        | _ -> ())
    | _ -> ()
  done;
  feeds

let instruction_passes machine prog =
  let feeds = feeds_reduction prog in
  let diags = ref [] in
  let add ds = diags := List.rev_append ds !diags in
  Array.iteri
    (fun i (ins : Program.instr) ->
      match ins.Program.layout with
      | None -> ()
      | Some layout -> (
          let loc = Diagnostics.Tir_instr i in
          let byte_width = max 1 (Tensor_lib.Dtype.bits ins.Program.dtype / 8) in
          match ins.Program.node with
          | Program.Load _ ->
              add (Analysis.Coalesce_lint.access machine ~loc ~op:"load" ~layout ~byte_width ())
          | Program.Store _ ->
              add (Analysis.Coalesce_lint.access machine ~loc ~op:"store" ~layout ~byte_width ())
          | Program.Elementwise { name; _ } ->
              add
                (Analysis.Broadcast_lint.value ~loc
                   ~op:(Printf.sprintf "elementwise %s" name)
                   ~reduced_later:feeds.(i) layout)
          | Program.Scan _ ->
              add
                (Analysis.Broadcast_lint.value ~loc ~op:"scan" ~reduced_later:feeds.(i)
                   layout)
          | _ -> ()))
    (Program.instrs prog);
  List.rev !diags

(* One plan's checks: bank certification, then the race and resource
   checks on the plan's one lowering ([None] when the plan has no
   warp-level lowering).  [resource] picks the full report or only its
   errors. *)
let plan_checks machine plan ~resource =
  let races, resource =
    match Analysis.Static_cost.lower_plan machine plan with
    | None -> ([], [])
    | Some ((program, _) as low) -> (Analysis.Races.check_lowered plan program, resource low)
  in
  Analysis.Bank_check.conversion machine plan @ races @ resource

let plan machine plan =
  plan_checks machine plan ~resource:(fun low ->
      (Analysis.Resource_check.lowered machine low).Analysis.Resource_check.diagnostics)

(* Per materialized conversion: [check]'s diagnostics of its plan,
   located at the conversion's instruction. *)
let per_conversion (result : Pass.result) check =
  List.concat_map
    (fun (c : Pass.conversion_info) ->
      match c.Pass.plan with
      | None -> []
      | Some plan ->
          check plan |> List.map (Diagnostics.with_loc (Diagnostics.Tir_instr c.Pass.at)))
    result.Pass.conversions

let passes machine prog ~result =
  instruction_passes machine prog @ per_conversion result (plan machine)

(* The LL4xx/LL5xx instruction lints only warn, so the errors of
   [passes] all come from the conversions, and there the resource
   check's errors need no register dataflow.  A plan's errors are its
   stored verdict after the first demand. *)
let errors machine ~result =
  per_conversion result (fun plan ->
      Analysis.Static_cost.plan_errors machine plan (fun () ->
          plan_checks machine plan ~resource:(fun (program, _) ->
              Analysis.Resource_check.errors program)
          |> Diagnostics.errors))
