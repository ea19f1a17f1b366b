(* The certifier's former decision procedure, kept as a differential
   oracle for [Analysis.Transval.certify_isa]: fit the realized and the
   claimed map as affine maps (verifying each fit exhaustively), compare
   the fits, and fall back to a numeric scan when either map is not
   affine.  The library now decides the same question in a single scan;
   test_transval.ml asserts both give identical certificates. *)

open Linear_layout
module T = Analysis.Transval

type affine = { in_bits : int; cols : int array; const : int }

let apply t h =
  let acc = ref t.const in
  for k = 0 to t.in_bits - 1 do
    if h land (1 lsl k) <> 0 then acc := !acc lxor t.cols.(k)
  done;
  !acc

(* Fit [f] on the basis, then verify the fit at every point; [Error h]
   is the first input where [f] is not affine. *)
let of_fun ~in_bits f =
  let const = f 0 in
  let t = { in_bits; cols = Array.init in_bits (fun k -> f (1 lsl k) lxor const); const } in
  let rec go h =
    if h >= 1 lsl in_bits then Ok t else if f h <> apply t h then Error h else go (h + 1)
  in
  go 0

(* Minimal-weight disagreement of two fits: [0] if the constants differ,
   else the lowest differing basis vector. *)
let counterexample a b =
  if a.const <> b.const then Some 0
  else
    let rec go k =
      if k >= a.in_bits then None
      else if a.cols.(k) <> b.cols.(k) then Some (1 lsl k)
      else go (k + 1)
    in
    go 0

let check_program ~src ~(map : Codegen.Lower.slot_map) ~want ~mechanism
    (program : Gpusim.Isa.program) =
  let points = map.Codegen.Lower.dst_regs * program.Gpusim.Isa.lanes * program.Gpusim.Isa.warps in
  let cert verdict = { T.mechanism; method_ = T.Symbolic; points; verdict } in
  match T.provenance ~map program with
  | exception Failure msg -> cert (T.Failed msg)
  | prov -> (
      let rec undef h =
        if h >= points then None else if prov h < 0 then Some h else undef (h + 1)
      in
      match undef 0 with
      | Some h -> cert (T.Refuted { counterexample = h; got = None; want = want h })
      | None -> (
          let src_flat = Layout.flatten_outs src in
          let got h = Layout.apply_flat src_flat (prov h) in
          let refute h =
            cert (T.Refuted { counterexample = h; got = Some (got h); want = want h })
          in
          let in_bits = Util.log2 points in
          let scan () =
            let rec go h =
              if h >= points then cert T.Proved else if got h <> want h then refute h else go (h + 1)
            in
            go 0
          in
          match (of_fun ~in_bits got, of_fun ~in_bits want) with
          | Ok g, Ok w -> (
              match counterexample g w with None -> cert T.Proved | Some h -> refute h)
          | _ -> scan ()))

let certify_isa ~src ~dst ~map program =
  let dst_flat = Layout.flatten_outs dst in
  check_program ~src ~map ~want:(fun h -> Layout.apply_flat dst_flat h) ~mechanism:"isa" program
