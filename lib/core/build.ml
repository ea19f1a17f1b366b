let id bits ~in_dim d = Layout.identity1d bits ~in_dim ~out_dim:(Dims.dim d)

(* The cover is the product [base x id x zeros x ... x id] of
   Propositions 9.1/9.2, one 1-D factor per (level, dimension).  Rather
   than multiply the factors in one at a time, walk them in the same
   order, collect each hardware dimension's columns in allocation order,
   build their product with one [Layout.make], and multiply it onto
   [base] once.  [used.(d)] counts the bits of logical dimension [d]
   covered so far, [base]'s included; the new factor's coordinates start
   at 0 because [Layout.mul] shifts them above [base]'s bits. *)
let cover ~base ~levels ~shape_bits ~order =
  let n = Array.length shape_bits in
  let start = Array.init n (fun d -> Layout.out_bits base (Dims.dim d)) in
  let used = Array.copy start in
  (* A dimension given only zero columns is still an output, of 0 new
     bits, as the zero factor in the fold made it. *)
  let touched = Array.make n false in
  (* Per hardware dimension, its columns newest first; dimensions in
     reverse order of first use. *)
  let columns = ref [] in
  let push hw image =
    match List.assoc_opt hw !columns with
    | Some r -> r := image :: !r
    | None -> columns := (hw, ref [ image ]) :: !columns
  in
  (* [bits] columns of [hw] onto the next unused bits of [d], clipped to
     the dimension's size; the excess broadcasts (zero columns). *)
  let alloc hw d bits =
    if bits > 0 then begin
      let label = Dims.dim d in
      let take = min bits (max 0 (shape_bits.(d) - used.(d))) in
      for j = 0 to bits - 1 do
        push hw (if j < take then [ (label, 1 lsl (used.(d) - start.(d) + j)) ] else [])
      done;
      touched.(d) <- true;
      used.(d) <- used.(d) + take
    end
  in
  List.iter (fun (hw, per_dim) -> Array.iter (fun d -> alloc hw d per_dim.(d)) order) levels;
  (* Wrap any remaining logical bits into extra registers. *)
  Array.iter (fun d -> alloc Dims.register d (shape_bits.(d) - used.(d))) order;
  match !columns with
  | [] -> base
  | columns ->
      let columns = List.rev_map (fun (hw, r) -> (hw, List.rev !r)) columns in
      let outs =
        List.filter_map
          (fun d -> if touched.(d) then Some (Dims.dim d, used.(d) - start.(d)) else None)
          (List.init n Fun.id)
      in
      Layout.mul base
        (Layout.make
           ~ins:(List.map (fun (hw, images) -> (hw, List.length images)) columns)
           ~outs ~bases:columns)
