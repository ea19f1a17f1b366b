let anchor : Pass.t = (module Pass_anchor)
let forward_propagate : Pass.t = (module Pass_forward)
let simplify : Pass.t = (module Pass_simplify)
let backward_remat : Pass.t = (module Pass_remat)
let insert_conversions : Pass.t = (module Pass_convert)
let lower : Pass.t = (module Pass_lower)

(* [simplify] must precede [backward_remat]: folded requests must never
   be considered for rematerialization (see Pass_simplify). *)
let default =
  [ anchor; forward_propagate; simplify; backward_remat; insert_conversions; lower ]

let name (module P : Pass.PASS) = P.name
let description (module P : Pass.PASS) = P.description
let find n = List.find_opt (fun p -> name p = n) default
