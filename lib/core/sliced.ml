let make parent ~dim = Layout.remove_out_dim parent (Dims.dim dim)

let compress l ~in_dim =
  let mask = try List.assoc in_dim (Layout.free_variable_masks l) with Not_found -> 0 in
  if mask = 0 then l
  else
    let ins = Layout.in_dims l in
    let cols =
      List.concat_map
        (fun (d, _) ->
          let cols = Layout.flat_columns l d in
          if d = in_dim then List.filteri (fun k _ -> not (F2.Bitvec.bit mask k)) cols else cols)
        ins
    in
    let drop = F2.Bitvec.popcount mask in
    Layout.of_matrix
      ~ins:(List.map (fun (d, bits) -> (d, if d = in_dim then bits - drop else bits)) ins)
      ~outs:(Layout.out_dims l)
      (F2.Bitmatrix.make ~rows:(Layout.total_out_bits l) (Array.of_list cols))

let reduction_result parent ~dim = compress (make parent ~dim) ~in_dim:Dims.register
