(* The point-set warp-ownership check that [Codegen.Mma_lower] replaced
   with span tests, kept as an executable specification of Proposition
   9.2: one table per warp of the logical coordinates it holds, and two
   lookups per (output point, k).  [check] must agree with
   [Mma_lower.check_ownership] on the verdict and on any
   [Invalid_argument] text; [confirms] checks a witness against the
   tables. *)

open Linear_layout

let dims2 l =
  match Dims.sort (Layout.out_dims l) with
  | [ (_, b1); (_, b0) ] -> (1 lsl b0, 1 lsl b1)
  | _ -> invalid_arg "Mma_lower: layouts must be 2-D"

(* For each warp, the set of logical coordinates it holds. *)
let ownership l =
  let to_logical = Layout.apply_flat l in
  let rb = Layout.in_bits l Dims.register and lb = Layout.in_bits l Dims.lane in
  let warps = 1 lsl Layout.in_bits l Dims.warp in
  let owned = Array.init warps (fun _ -> Hashtbl.create 256) in
  for hw = 0 to (1 lsl Layout.total_in_bits l) - 1 do
    Hashtbl.replace owned.(hw lsr (rb + lb)) (to_logical hw) ()
  done;
  owned

let check ~out ~lhs ~rhs =
  let m, n = dims2 out in
  let m', k = dims2 lhs in
  let k', n' = dims2 rhs in
  if m <> m' || n <> n' || k <> k' then invalid_arg "Mma_lower: inconsistent shapes";
  let out_w = ownership out in
  let lhs_w = ownership lhs and rhs_w = ownership rhs in
  let warps_out = Array.length out_w in
  if Array.length lhs_w <> warps_out || Array.length rhs_w <> warps_out then
    invalid_arg "Mma_lower: operand and output warp counts differ";
  let result = ref (Ok ()) in
  for w = 0 to warps_out - 1 do
    if !result = Ok () then
      Hashtbl.iter
        (fun logical () ->
          if !result = Ok () then begin
            let i = logical / n and j = logical mod n in
            let rec scan kk =
              if kk >= k then ()
              else if not (Hashtbl.mem lhs_w.(w) ((i * k) + kk)) then
                result :=
                  Error
                    { Codegen.Mma_lower.warp = w; missing = Printf.sprintf "lhs(%d,%d)" i kk }
              else if not (Hashtbl.mem rhs_w.(w) ((kk * n') + j)) then
                result :=
                  Error
                    { Codegen.Mma_lower.warp = w; missing = Printf.sprintf "rhs(%d,%d)" kk j }
              else scan (kk + 1)
            in
            scan 0
          end)
        out_w.(w)
  done;
  !result

(* [confirms ~out ~lhs ~rhs v]: warp [v.warp] lacks the coordinate
   [v.missing] names, yet owns an output element that needs it. *)
let confirms ~out ~lhs ~rhs (v : Codegen.Mma_lower.violation) =
  let m, n = dims2 out and _, k = dims2 lhs in
  let out_w = ownership out in
  let w = v.Codegen.Mma_lower.warp in
  let lacks tables coord = w < Array.length tables && not (Hashtbl.mem tables.(w) coord) in
  let needs p =
    w < Array.length out_w && Hashtbl.fold (fun o () acc -> acc || p o) out_w.(w) false
  in
  Scanf.sscanf v.Codegen.Mma_lower.missing "%3s(%d,%d)%!" (fun side a b ->
      match side with
      | "lhs" when a < m && b < k ->
          lacks (ownership lhs) ((a * k) + b) && needs (fun o -> o / n = a)
      | "rhs" when a < k && b < n ->
          lacks (ownership rhs) ((a * n) + b) && needs (fun o -> o mod n = b)
      | _ -> false)
