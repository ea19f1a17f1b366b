(* Reduction code generation (Section 5.1's broadcasting machinery in
   action): lower a row-sum over a layout whose reduced axis spans
   registers, lanes and warps, print the emitted instruction stream,
   execute it, and verify every duplicated copy of the result agrees.

   Run with: dune exec examples/reduction_codegen.exe *)

open Linear_layout

let machine = Gpusim.Machine.gh200

let () =
  let layout =
    Blocked.make
      {
        shape = [| 16; 64 |];
        size_per_thread = [| 2; 2 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 2; 2 |];
        order = [| 1; 0 |];
      }
  in
  Format.printf "input layout:@.%a@.@." Layout.pp layout;

  (* Which hardware bits point along the reduced axis (dim1)? *)
  let masks_before = Layout.free_variable_masks layout in
  Format.printf "free bits before reduction: %s@."
    (String.concat ", "
       (List.map (fun (d, m) -> Printf.sprintf "%s:0x%x" d m) masks_before));
  let sliced = Sliced.make layout ~dim:1 in
  Format.printf "free bits after slicing dim1: %s@.@."
    (String.concat ", "
       (List.map (fun (d, m) -> Printf.sprintf "%s:0x%x" d m)
          (Layout.free_variable_masks sliced)));

  (* Lower, print, execute. *)
  let d = Gpusim.Dist.init layout ~f:(fun v -> (v mod 7) + 1) in
  let program, map, result_layout = Codegen.Lower.reduce machine ~src:d ~axis:1 in
  Format.printf "lowered all-reduce (%d instructions):@.%a@."
    (List.length program.Gpusim.Isa.body)
    Gpusim.Isa.pp program;

  let st = Codegen.Lower.load_state program map d in
  let cost = Gpusim.Isa.run machine program st in
  Format.printf "interpreter cost: %a@.@." Gpusim.Cost.pp cost;

  let out = Codegen.Lower.store_dist program map ~dst:result_layout st in
  (match Gpusim.Dist.to_logical out with
  | Ok sums ->
      Printf.printf "row sums (every broadcast copy agreed): %s ...\n"
        (String.concat " " (List.map string_of_int (Array.to_list (Array.sub sums 0 8))))
  | Error e -> failwith e);

  (* The legacy contrast (Table 4): without free-variable analysis,
     every register element goes through shared memory. *)
  let regs = Layout.in_size layout Dims.register in
  let warps = Layout.in_size layout Dims.warp in
  Printf.printf
    "\nlegacy would store %d register elements x %d warps = %d shared-memory values;\n"
    regs warps (regs * warps);
  Printf.printf "the linear lowering used %d shared-memory instructions in total.\n"
    cost.Gpusim.Cost.smem_insts;

  (* The static analyzers (lib/analysis) prove the lowering safe: the
     cross-warp exchange is barrier-ordered, and dropping the barriers
     is caught immediately as a read-after-write race. *)
  Format.printf "\nrace/barrier check: %a@." Diagnostics.pp_list
    (Analysis.Races.check program);
  let stripped =
    {
      program with
      Gpusim.Isa.body =
        List.filter (fun i -> i <> Gpusim.Isa.Bar_sync) program.Gpusim.Isa.body;
    }
  in
  Format.printf "same program with barriers dropped: %a@." Diagnostics.pp_list
    (Analysis.Races.check stripped)
