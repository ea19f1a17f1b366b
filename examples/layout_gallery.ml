(* A gallery of Triton's layout families rendered as Figure 1/3-style
   grids — every one of them an instance of the single linear-layout
   representation (Figure 3, Section 4.3).

   Run with: dune exec examples/layout_gallery.exe *)

open Linear_layout

let show title layout =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "literal: %s\n\n" (Parse.to_string layout);
  (match Render.grid layout with
  | g -> print_string g
  | exception Invalid_argument _ -> print_endline "(too large to render)");
  let issues = Check.distributed layout in
  if Diagnostics.errors issues <> [] then Format.printf "%a@." Diagnostics.pp_list issues

let show_memory title layout =
  Printf.printf "\n=== %s ===\n" title;
  print_string (Render.memory_grid layout)

let () =
  (* Distributed layouts (Figure 3, left). *)
  show "Blocked 16x16 (Figure 1a)"
    (Blocked.make
       {
         shape = [| 16; 16 |];
         size_per_thread = [| 2; 2 |];
         threads_per_warp = [| 4; 8 |];
         warps_per_cta = [| 2; 1 |];
         order = [| 1; 0 |];
       });
  show "Blocked 16x16, column-major threads (Figure 1b flavour)"
    (Blocked.make
       {
         shape = [| 16; 16 |];
         size_per_thread = [| 2; 2 |];
         threads_per_warp = [| 8; 4 |];
         warps_per_cta = [| 1; 2 |];
         order = [| 0; 1 |];
       });
  show "MMA accumulator m16n8 (one warp, f32)" (Mma.output_tile ~bitwidth:32);
  show "MMA input (lhs operand, f16)" (Mma.operand_tile ~idx:0 ~bitwidth:16);
  show "wgmma accumulator m64n8 (warp group)" (Mma.wgmma_output_tile ~bitwidth:32);
  show "Intel XMX (dpas) accumulator 8x16" (Mma.xmx_output_tile ());

  (* Sliced layouts keep the parent's structure minus one dimension. *)
  let parent =
    Blocked.make
      {
        shape = [| 16; 16 |];
        size_per_thread = [| 2; 2 |];
        threads_per_warp = [| 4; 8 |];
        warps_per_cta = [| 2; 1 |];
        order = [| 1; 0 |];
      }
  in
  let sliced = Sliced.reduction_result parent ~dim:1 in
  Printf.printf "\n=== Sliced<Blocked> after reducing dim1 ===\n";
  Format.printf "%a@." Layout.pp sliced;

  (* Memory layouts (Figure 3, right): unswizzled vs mma swizzling. *)
  show_memory "Unswizzled shared memory 8x8 (element offsets)"
    (Shared.row_major ~shape:[| 8; 8 |]);
  show_memory "MMA swizzling vec=2 per_phase=1 max_phase=4 (Def 4.11)"
    (Shared.mma_swizzle ~vec:2 ~per_phase:1 ~max_phase:4 ~rows:8 ~cols:8);

  (* And one that legacy Triton could not express at all: a custom
     permutation layout, still first-class here. *)
  let custom =
    match
      Parse.of_string
        "register=[(dim0:1),(dim1:8)] lane=[(dim1:1),(dim0:2),(dim1:2),(dim0:4),(dim1:4)] \
         warp=[(dim0:8)] -> dim0:16, dim1:16"
    with
    | Ok l -> l
    | Error e -> failwith e
  in
  show "Custom permutation layout (inexpressible in legacy Triton)" custom
