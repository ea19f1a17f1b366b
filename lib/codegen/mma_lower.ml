open Linear_layout

type violation = { warp : int; missing : string }

let dims2 l =
  match Dims.sort (Layout.out_dims l) with
  | [ (_, b1); (_, b0) ] -> (1 lsl b0, 1 lsl b1)
  | _ -> invalid_arg "Mma_lower: layouts must be 2-D"

let threads l = Layout.flat_columns l Dims.register @ Layout.flat_columns l Dims.lane

(* Warp [w] owns the output coset [O_warp w + span O_thread] and must
   hold [proj o + z] of an operand for each owned [o] and each [z] in
   the span of [ks], the operand's k coordinates.  Both sides are
   linear in [w], so containment in the operand's coset
   [L_warp w + span L_thread] for every warp is: the projected output
   thread columns and [ks] lie in [span L_thread], and so does
   [proj (O_warp e_b) + L_warp e_b] for each warp bit [b]
   (docs/THEORY.md, "Warp ownership by rank").  A failing thread
   vector is a coordinate warp 0 needs and lacks; for a failing warp
   bit, warp [2^b] needs and lacks [proj (O_warp e_b)]. *)
let side ~out name l ~cols ~proj ~ks =
  let span = threads l in
  let outside v = not (F2.Subspace.mem span v) in
  let missing w v =
    Error { warp = w; missing = Printf.sprintf "%s(%d,%d)" name (v / cols) (v mod cols) }
  in
  let rec by_warp b os ls =
    match (os, ls) with
    | o :: os, c :: ls ->
        if outside (proj o lxor c) then missing (1 lsl b) (proj o) else by_warp (b + 1) os ls
    | _ -> Ok ()
  in
  match List.find_opt outside (List.map proj (threads out) @ ks) with
  | Some v -> missing 0 v
  | None -> by_warp 0 (Layout.flat_columns out Dims.warp) (Layout.flat_columns l Dims.warp)

let check_ownership ~out ~lhs ~rhs =
  let m, n = dims2 out in
  let m', k = dims2 lhs in
  let k', n' = dims2 rhs in
  if m <> m' || n <> n' || k <> k' then invalid_arg "Mma_lower: inconsistent shapes";
  let warps = Layout.in_bits out Dims.warp in
  if Layout.in_bits lhs Dims.warp <> warps || Layout.in_bits rhs Dims.warp <> warps then
    invalid_arg "Mma_lower: operand and output warp counts differ";
  (* An output coordinate is [i * n + j]; lhs(i, kk) is [i * k + kk]
     and rhs(kk, j) is [kk * n + j]. *)
  let nb = F2.Bitvec.ntz n and kb = F2.Bitvec.ntz k in
  match
    side ~out "lhs" lhs ~cols:k
      ~proj:(fun v -> (v lsr nb) lsl kb)
      ~ks:(List.init kb (fun b -> 1 lsl b))
  with
  | Error _ as e -> e
  | Ok () ->
      side ~out "rhs" rhs ~cols:n
        ~proj:(fun v -> v land (n - 1))
        ~ks:(List.init kb (fun b -> 1 lsl (nb + b)))

let execute_dot ~out a b ~mul ~add ~zero =
  (match check_ownership ~out ~lhs:a.Gpusim.Dist.layout ~rhs:b.Gpusim.Dist.layout with
  | Ok () -> ()
  | Error v -> failwith (Printf.sprintf "Mma_lower: warp %d is missing %s" v.warp v.missing));
  let values d =
    match Gpusim.Dist.to_logical d with Ok t -> t | Error e -> failwith ("Mma_lower: " ^ e)
  in
  let ta = values a and tb = values b in
  let _, n = dims2 out in
  let _, k = dims2 a.Gpusim.Dist.layout in
  let to_logical = Layout.apply_flat out in
  let data =
    Array.init (1 lsl Layout.total_in_bits out) (fun hw ->
        let logical = to_logical hw in
        let i = logical / n and j = logical mod n in
        let acc = ref zero in
        for kk = 0 to k - 1 do
          acc := add !acc (mul ta.((i * k) + kk) tb.((kk * n) + j))
        done;
        !acc)
  in
  { Gpusim.Dist.layout = out; data }
