open Linear_layout

type t = { layout : Layout.t; data : int array }

let init layout ~f =
  let n = 1 lsl Layout.total_in_bits layout in
  let to_logical = Layout.apply_flat layout in
  { layout; data = Array.init n (fun hw -> f (to_logical hw)) }

let size d = Array.length d.data
let get d hw = d.data.(hw)
let set d hw v = d.data.(hw) <- v

let to_logical d =
  let to_logical = Layout.apply_flat d.layout in
  let n = 1 lsl Layout.total_out_bits d.layout in
  let out = Array.make n 0 and seen = Array.make n false in
  let err = ref None in
  Array.iteri
    (fun hw v ->
      let logical = to_logical hw in
      if not seen.(logical) then begin
        seen.(logical) <- true;
        out.(logical) <- v
      end
      else if out.(logical) <> v && !err = None then
        err :=
          Some
            (Printf.sprintf "broadcast mismatch at logical %d: %d vs %d" logical out.(logical) v))
    d.data;
  match !err with
  | Some e -> Error e
  | None ->
      if Array.exists not seen then Error "layout is not surjective"
      else Ok out

let consistent_with d ~f =
  let to_logical = Layout.apply_flat d.layout in
  let ok = ref true in
  Array.iteri (fun hw v -> if v <> f (to_logical hw) then ok := false) d.data;
  !ok
