(* The list-based subspace code that [F2.Subspace] replaced with pivot
   tables, kept as an executable specification: each insertion scans a
   list of pivots for the one whose most significant bit matches, and
   [reduce] fully reduces against an echelonized basis on every call.
   [echelon_basis], [extend] and [complete_basis] must match
   [F2.Subspace] vector for vector; [intersection] must match as a
   set. *)

open F2

let insert pivots v =
  let rec go v =
    if v = 0 then pivots
    else
      match List.find_opt (fun p -> Bitvec.msb p = Bitvec.msb v) pivots with
      | Some p -> go (v lxor p)
      | None -> v :: pivots
  in
  go v

let echelon_basis vs =
  List.fold_left insert [] vs |> List.sort (fun a b -> Int.compare (Bitvec.msb b) (Bitvec.msb a))

let reduce basis v =
  List.fold_left
    (fun v p -> if Bitvec.bit v (Bitvec.msb p) then v lxor p else v)
    v (echelon_basis basis)

let mem basis v = reduce basis v = 0

(* The optimal-swizzle search's former greedy pick, without its
   count limit. *)
let extend basis candidates =
  List.fold_left
    (fun chosen cand -> if reduce (basis @ chosen) cand <> 0 then chosen @ [ cand ] else chosen)
    [] candidates

let complete_basis ~dim:d basis =
  let rec go k acc cur =
    if k >= d then List.rev acc
    else
      let e = Bitvec.unit k in
      if reduce cur e <> 0 then go (k + 1) (e :: acc) (e :: cur) else go (k + 1) acc cur
  in
  go 0 [] basis

let intersection a b =
  let d = List.fold_left (fun acc v -> max acc (Bitvec.width v)) 0 (a @ b) in
  let paired = List.map (fun v -> (v lsl d) lor v) a @ List.map (fun w -> w lsl d) b in
  List.fold_left insert [] paired |> List.filter (fun p -> p <> 0 && p lsr d = 0)
