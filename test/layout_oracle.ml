(* The former layout-construction code, kept as a differential oracle:
   the [Hashtbl] dimension merge, the product built on it, and the cover
   evaluated as a fold of 1-D products, one [mul] per (level,
   dimension).  The library now builds a cover as one product and merges
   sorted arrays linearly; test_constructors.ml and test_layout.ml assert
   both give structurally equal layouts. *)

open Linear_layout

(* {1 Product} *)

let merge_dims a b =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (d, bits) -> Hashtbl.replace tbl d bits) a;
  List.iter
    (fun (d, bits) ->
      match Hashtbl.find_opt tbl d with
      | Some prev -> Hashtbl.replace tbl d (prev + bits)
      | None -> Hashtbl.replace tbl d bits)
    b;
  Hashtbl.fold (fun d bits acc -> (d, bits) :: acc) tbl [] |> Dims.sort

let mul a b =
  let ins = merge_dims (Layout.in_dims a) (Layout.in_dims b) in
  let outs = merge_dims (Layout.out_dims a) (Layout.out_dims b) in
  let images l ~shift d =
    List.init (Layout.in_bits l d) (fun k ->
        List.map
          (fun (o, c) -> (o, if shift then c lsl Layout.out_bits a o else c))
          (Layout.basis l d k))
  in
  Layout.make ~ins ~outs
    ~bases:(List.map (fun (d, _) -> (d, images a ~shift:false d @ images b ~shift:true d)) ins)

(* {1 Cover} *)

let id bits ~in_dim d = Layout.identity1d bits ~in_dim ~out_dim:(Dims.dim d)

let alloc acc ~hw ~d ~bits ~shape_bits =
  let used = Layout.out_bits acc (Dims.dim d) in
  let take = min bits (max 0 (shape_bits.(d) - used)) in
  let acc = if take > 0 then mul acc (id take ~in_dim:hw d) else acc in
  if bits > take then mul acc (Layout.zeros1d (bits - take) ~in_dim:hw ~out_dim:(Dims.dim d))
  else acc

let cover ~base ~levels ~shape_bits ~order =
  let acc =
    List.fold_left
      (fun acc (hw, per_dim) ->
        Array.fold_left (fun acc d -> alloc acc ~hw ~d ~bits:per_dim.(d) ~shape_bits) acc order)
      base levels
  in
  Array.fold_left
    (fun acc d ->
      let rem = shape_bits.(d) - Layout.out_bits acc (Dims.dim d) in
      if rem > 0 then mul acc (id rem ~in_dim:Dims.register d) else acc)
    acc order

(* {1 Free variables} *)

(* The former free-variable scan: a column is free when it lies in the
   span of the columns kept before it, tested against a fresh
   elimination per column.  The library now reads the free columns off
   [F2.Bitmatrix.factorize]'s pivot columns. *)
let free_variable_masks l =
  let kept = ref [] in
  List.map
    (fun (d, bits) ->
      let mask = ref 0 in
      for k = 0 to bits - 1 do
        let v = Layout.basis_flat l d k in
        if Subspace_oracle.mem !kept v then mask := !mask lor (1 lsl k) else kept := v :: !kept
      done;
      (d, !mask))
    (Layout.in_dims l)
