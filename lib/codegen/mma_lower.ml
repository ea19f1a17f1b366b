open Linear_layout

type violation = { warp : int; missing : string }

(* Per-warp maps from logical coordinates to held values (or just
   presence), validating that duplicated copies agree. *)
let warp_fragments (d : Gpusim.Dist.t) =
  let l = d.Gpusim.Dist.layout in
  let to_logical = Layout.apply_flat l in
  let rb = Layout.in_bits l Dims.register and lb = Layout.in_bits l Dims.lane in
  let warps = 1 lsl Layout.in_bits l Dims.warp in
  let tables = Array.init warps (fun _ -> Hashtbl.create 256) in
  Array.iteri
    (fun hw v ->
      let w = hw lsr (rb + lb) in
      let logical = to_logical hw in
      match Hashtbl.find_opt tables.(w) logical with
      | Some v' when v' <> v -> failwith "Mma_lower: disagreeing broadcast copies"
      | Some _ -> ()
      | None -> Hashtbl.add tables.(w) logical v)
    d.Gpusim.Dist.data;
  tables

let dims2 l =
  match Dims.sort (Layout.out_dims l) with
  | [ (_, b1); (_, b0) ] -> (1 lsl b0, 1 lsl b1)
  | _ -> invalid_arg "Mma_lower: layouts must be 2-D"

(* Logical flattening used by [Layout.flatten_outs] for a 2-D tensor:
   the last dimension is the fastest. *)
let fl ~cols i j = (i * cols) + j

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

let check_ownership ~out ~lhs ~rhs =
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
              else if not (Hashtbl.mem lhs_w.(w) (fl ~cols:k i kk)) then
                result :=
                  Error { warp = w; missing = Printf.sprintf "lhs(%d,%d)" i kk }
              else if not (Hashtbl.mem rhs_w.(w) (fl ~cols:n' kk j)) then
                result :=
                  Error { warp = w; missing = Printf.sprintf "rhs(%d,%d)" kk j }
              else scan (kk + 1)
            in
            scan 0
          end)
        out_w.(w)
  done;
  !result

let execute_dot ~out a b ~mul ~add ~zero =
  let lhs = a.Gpusim.Dist.layout and rhs = b.Gpusim.Dist.layout in
  (match check_ownership ~out ~lhs ~rhs with
  | Ok () -> ()
  | Error v -> failwith (Printf.sprintf "Mma_lower: warp %d is missing %s" v.warp v.missing));
  let _, n = dims2 out in
  let _, k = dims2 lhs in
  let _, n' = dims2 rhs in
  let frag_a = warp_fragments a and frag_b = warp_fragments b in
  let to_logical = Layout.apply_flat out in
  let rb = Layout.in_bits out Dims.register and lb = Layout.in_bits out Dims.lane in
  let data =
    Array.init (1 lsl Layout.total_in_bits out) (fun hw ->
        let w = hw lsr (rb + lb) in
        let logical = to_logical hw in
        let i = logical / n and j = logical mod n in
        let acc = ref zero in
        for kk = 0 to k - 1 do
          let av = Hashtbl.find frag_a.(w) (fl ~cols:k i kk) in
          let bv = Hashtbl.find frag_b.(w) (fl ~cols:n' kk j) in
          acc := add !acc (mul av bv)
        done;
        !acc)
  in
  { Gpusim.Dist.layout = out; data }

let mma_instructions ~out ~lhs ~bitwidth =
  let m, n = dims2 out in
  let _, k = dims2 lhs in
  ignore m;
  ignore n;
  let warps = 1 lsl Layout.in_bits out Dims.warp in
  let elems_per_warp =
    (1 lsl Layout.in_bits out Dims.register) * (1 lsl Layout.in_bits out Dims.lane)
  in
  let tiles_per_warp = max 1 (elems_per_warp / (16 * 8)) in
  let k_steps = max 1 (k / max 1 (256 / bitwidth)) in
  let insts = warps * tiles_per_warp * k_steps in
  Obs.Metrics.observe "codegen.mma.instructions" insts;
  insts
