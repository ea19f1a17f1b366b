let register = "register"
let lane = "lane"
let warp = "warp"
let block = "block"
let offset = "offset"
let vec = "vec"
let bank = "bank"
let seg = "seg"
let flat = "flat"
let dim k = "dim" ^ string_of_int k

(* The value of a ["dim<digits>"] label's digits, read in place; [-1]
   when the label has another form or more than 18 digits, which
   [dim_index] then reads through [int_of_string_opt]. *)
let rec digits_from name i acc =
  if i = String.length name then acc
  else
    match name.[i] with
    | '0' .. '9' as c -> digits_from name (i + 1) ((10 * acc) + Char.code c - 48)
    | _ -> -1

let dim_digits name =
  let n = String.length name in
  if n < 4 || n > 21 || name.[0] <> 'd' || name.[1] <> 'i' || name.[2] <> 'm' then -1
  else digits_from name 3 0

let dim_index name =
  match dim_digits name with
  | -1 ->
      if String.length name > 3 && name.[0] = 'd' && name.[1] = 'i' && name.[2] = 'm' then
        int_of_string_opt (String.sub name 3 (String.length name - 3))
      else None
  | k -> Some k

(* The canonical order compares (group, numeric subkey, name): hardware
   dims come first in a fixed order; logical dims follow with higher
   indices first so that the fastest-moving (last) logical dimension
   lands in the low bits of the flattened vector; unknown labels sort
   alphabetically at the end.  It is read in place: sorting a layout's
   dimensions allocates nothing but the sorted list. *)
let group name =
  match name with
  | "register" -> 0
  | "lane" -> 1
  | "warp" -> 2
  | "block" -> 3
  | "offset" -> 4
  | "vec" -> 5
  | "bank" -> 6
  | "seg" -> 7
  | "flat" -> 8
  | _ -> if dim_digits name >= 0 || dim_index name <> None then 9 else 10

let index name = match dim_digits name with -1 -> Option.get (dim_index name) | k -> k

let compare a b =
  let ga = group a and gb = group b in
  if ga <> gb then Int.compare ga gb
  else
    let c = if ga = 9 then Int.compare (-index a) (-index b) else 0 in
    if c <> 0 then c else String.compare a b

let rec sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> compare a b <= 0 && sorted rest
  | [] | [ _ ] -> true

let sort l = if sorted l then l else List.sort (fun (a, _) (b, _) -> compare a b) l
