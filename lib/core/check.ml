let err ~code fmt = Diagnostics.error ~code fmt
let warn ~code fmt = Diagnostics.warning ~code fmt

let columns_with_names l =
  Layout.in_dims l
  |> List.concat_map (fun (d, bits) ->
         List.init bits (fun k -> ((d, k), Layout.basis_flat l d k)))

(* Which logical elements a non-surjective layout misses: sample the
   first few coset representatives outside the image. *)
let missing_elements l =
  let cols = List.map snd (columns_with_names l) in
  let image = F2.Subspace.echelon_basis cols in
  let d = Layout.total_out_bits l in
  let rec scan v acc =
    if v >= 1 lsl d || List.length acc >= 3 then List.rev acc
    else scan (v + 1) (if F2.Subspace.mem image v then acc else v :: acc)
  in
  scan 1 []

let describe_flat l v =
  Layout.unflatten_value (Layout.out_dims l) v
  |> List.map (fun (d, c) -> Printf.sprintf "%s=%d" d c)
  |> String.concat ", "

let distributed l =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if not (Layout.is_surjective l) then begin
    let misses = missing_elements l in
    add
      (err ~code:"LL101" "layout is not surjective: no hardware point holds %s%s"
         (match misses with v :: _ -> describe_flat l v | [] -> "some elements")
         (if List.length misses > 1 then " (and others)" else ""))
  end;
  let cols = columns_with_names l in
  List.iter
    (fun ((d, k), c) ->
      if F2.Bitvec.popcount c > 1 then
        add
          (err ~code:"LL102"
             "column %s[%d] has %d set bits (%s) — distributed layouts are index \
              permutations (Def 4.10)"
             d k (F2.Bitvec.popcount c) (describe_flat l c)))
    cols;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ((d, k), c) ->
      if c <> 0 then begin
        (match Hashtbl.find_opt seen c with
        | Some (d', k') ->
            add
              (err ~code:"LL103"
                 "columns %s[%d] and %s[%d] both map to %s — duplicated data outside \
                  broadcasting"
                 d' k' d k (describe_flat l c))
        | None -> ());
        Hashtbl.replace seen c (d, k)
      end
      else
        add
          (warn ~code:"LL104" "column %s[%d] is zero: this bit broadcasts (duplicated data)" d
             k))
    cols;
  List.rev !issues

let memory l =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if Layout.total_in_bits l <> Layout.total_out_bits l then
    add
      (err ~code:"LL110" "memory layout must be square: %d offset bits vs %d tensor bits"
         (Layout.total_in_bits l) (Layout.total_out_bits l))
  else if not (Layout.is_invertible l) then
    add
      (err ~code:"LL111"
         "memory layout is not invertible: distinct offsets alias the same element");
  List.iter
    (fun ((d, k), c) ->
      let pc = F2.Bitvec.popcount c in
      if pc = 0 then add (err ~code:"LL112" "offset bit %s[%d] maps to nothing" d k)
      else if pc > 2 then
        add
          (warn ~code:"LL113"
             "offset bit %s[%d] has %d set bits — beyond the xor-swizzle family \
              (Def 4.14 allows 1 or 2)"
             d k pc))
    (columns_with_names l);
  List.rev !issues

let convertible ~src ~dst =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  if Layout.out_dims src <> Layout.out_dims dst then
    add
      (err ~code:"LL120" "layouts cover different logical spaces (%s vs %s)"
         (String.concat "x" (List.map fst (Layout.out_dims src)))
         (String.concat "x" (List.map fst (Layout.out_dims dst))));
  List.iter
    (fun d ->
      if Layout.in_size src d <> Layout.in_size dst d then
        add
          (err ~code:"LL121"
             "%s footprint differs: %d vs %d — conversions cannot change the CTA shape" d
             (Layout.in_size src d) (Layout.in_size dst d)))
    [ Dims.lane; Dims.warp; Dims.block ];
  if !issues = [] && Layout.flat_columns src Dims.block <> Layout.flat_columns dst Dims.block
  then
    add
      (warn ~code:"LL122" "CTA columns differ: the conversion needs distributed (global) memory");
  List.rev !issues
