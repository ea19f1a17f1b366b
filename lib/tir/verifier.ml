open Linear_layout

let err at ~code fmt = Diagnostics.error ~code ~loc:(Diagnostics.Tir_instr at) fmt

let shape_of_layout l =
  Layout.out_dims l
  |> List.filter_map (fun (d, bits) ->
         Option.map (fun k -> (k, 1 lsl bits)) (Dims.dim_index d))
  |> List.sort compare

let covers_shape l shape =
  let dims = shape_of_layout l in
  List.length dims = Array.length shape
  && List.for_all (fun (k, size) -> k < Array.length shape && shape.(k) = size) dims

(* The layouts of [a] and [b] must agree up to the logical index map
   [f : b-coords -> a-coords]: every hardware point holds, under [b]'s
   layout, the [f]-image of some point... we check the stronger and
   simpler property used by the engine: [b = rename/reshape of a], i.e.
   the flattened matrices agree after the index transformation. *)
let same_matrix la lb = F2.Bitmatrix.equal (Layout.to_matrix la) (Layout.to_matrix lb)

let program prog =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let layout_of i = (Program.instr prog i).Program.layout in
  Array.iteri
    (fun i (ins : Program.instr) ->
      match layout_of i with
      | None -> add (err i ~code:"LL601" "no layout assigned")
      | Some l -> (
          if not (covers_shape l ins.Program.shape) then
            add (err i ~code:"LL602" "layout does not cover the instruction's shape");
          if not (Layout.is_surjective l) then
            add (err i ~code:"LL603" "layout is not surjective");
          List.iter
            (fun iss ->
              add (Diagnostics.with_loc (Diagnostics.Tir_instr i) iss))
            (Diagnostics.errors (Check.distributed l));
          match ins.Program.node with
          | Program.Trans { src; perm } -> (
              match layout_of src with
              | Some ls ->
                  let spec =
                    Array.to_list perm
                    |> List.mapi (fun out_d in_d -> (Dims.dim in_d, Dims.dim out_d))
                    |> List.filter (fun (a, b) -> a <> b)
                  in
                  let expected = if spec = [] then ls else Layout.exchange_out_names ls spec in
                  if not (Layout.equal l expected) then
                    add (err i ~code:"LL605" "transpose layout is not the renamed input layout")
              | None -> ())
          | Program.Reshape { src } -> (
              match layout_of src with
              | Some ls ->
                  if not (same_matrix l ls) then
                    add (err i ~code:"LL606" "reshape changed the flattened layout matrix")
              | None -> ())
          | Program.Expand_dims { src; _ } | Program.Split { src; _ } -> (
              (* The flattened matrix may only lose columns (split) or
                 stay equal (expand): check the image is preserved up
                 to the removed dimension by surjectivity (already
                 checked) and rank monotonicity. *)
              match layout_of src with
              | Some ls ->
                  if
                    F2.Bitmatrix.rank (Layout.to_matrix l)
                    > F2.Bitmatrix.rank (Layout.to_matrix ls)
                  then add (err i ~code:"LL607" "shape op increased the layout's rank")
              | None -> ())
          | Program.Reduce { src; axis } -> (
              match layout_of src with
              | Some ls ->
                  (* The result must be (a compression of) the slice of
                     the input: every hardware point of the result maps
                     to the slice of some input point's coordinates. *)
                  let sliced = Layout.remove_out_dim ls (Dims.dim axis) in
                  let cols l' d = Layout.flat_columns l' d in
                  let rename k = if k > axis then k - 1 else k in
                  let sliced =
                    Layout.exchange_out_names sliced
                      (Layout.out_dims sliced
                      |> List.filter_map (fun (d, _) ->
                             match Dims.dim_index d with
                             | Some k when rename k <> k -> Some (d, Dims.dim (rename k))
                             | _ -> None))
                  in
                  let subset a b = List.for_all (fun c -> c = 0 || List.mem c b) a in
                  if
                    not
                      (subset (cols l Dims.lane) (cols sliced Dims.lane)
                      && subset (cols l Dims.warp) (cols sliced Dims.warp))
                  then add (err i ~code:"LL608" "reduction result does not slice the input layout")
              | None -> ())
          | Program.Broadcast { src } -> (
              match layout_of src with
              | Some ls ->
                  (* Slicing the broadcast dimensions back must recover
                     (the surjective core of) the input layout's image. *)
                  let grown =
                    Array.to_list
                      (Array.mapi (fun d s -> (d, s)) ins.Program.shape)
                    |> List.filter (fun (d, s) ->
                           s > 1 && Layout.out_bits ls (Dims.dim d) = 0)
                    |> List.map fst
                  in
                  let back =
                    List.fold_left (fun acc d -> Layout.remove_out_dim acc (Dims.dim d)) l grown
                  in
                  let img l' =
                    F2.Subspace.echelon_basis
                      (List.concat_map (fun (d, _) -> Layout.flat_columns l' d)
                         (Layout.in_dims l'))
                  in
                  let back_img = img back in
                  let src_img =
                    img (List.fold_left (fun acc d -> Layout.remove_out_dim acc (Dims.dim d)) ls grown)
                  in
                  if not (F2.Subspace.equal_span back_img src_img) then
                    add (err i ~code:"LL609" "broadcast does not extend the input layout")
              | None -> ())
          | _ -> ()))
    (Program.instrs prog);
  List.rev !issues
