open Linear_layout

type t = {
  src : Layout.t;
  dst : Layout.t;
  vec : int list;
  common_thr : int list;
  g : int list;
  ext : int list;
  rounds : int;
  shuffles_per_round : int;
}

let nonzero_cols l d = List.filter (fun c -> c <> 0) (Layout.flat_columns l d)
let set_diff a b = List.filter (fun x -> not (List.mem x b)) a
let set_inter a b = List.filter (fun x -> List.mem x b) a

let plan ~src ~dst ~byte_width =
  let a = Layout.flatten_outs src and b = Layout.flatten_outs dst in
  if Layout.logical_space src <> Layout.logical_space dst then
    Error "layouts cover different logical spaces"
  else if Layout.flat_columns a Dims.warp <> Layout.flat_columns b Dims.warp then
    Error "conversion crosses warps"
  else if Layout.flat_columns a Dims.block <> Layout.flat_columns b Dims.block then
    Error "conversion crosses CTAs"
  else if not (Layout.Memo.is_invertible a && Layout.Memo.is_invertible b) then
    Error "broadcasting layouts need the shared-memory path"
  else begin
    let d = Layout.total_out_bits a in
    let a_reg = nonzero_cols a Dims.register and b_reg = nonzero_cols b Dims.register in
    let a_thr = nonzero_cols a Dims.lane and b_thr = nonzero_cols b Dims.lane in
    let vec = set_inter a_reg b_reg in
    let common_thr = set_inter a_thr b_thr in
    let e = List.sort compare (set_diff a_thr common_thr) in
    let f = List.sort compare (set_diff b_thr common_thr) in
    if List.length e <> List.length f then Error "thread spaces of unequal size"
    else begin
      let g = List.map2 ( lxor ) e f in
      let vig = vec @ common_thr @ g in
      if F2.Subspace.dim vig <> List.length vig then
        Error "V u I u G is not independent (unexpected for distributed layouts)"
      else
        let ext = F2.Subspace.complete_basis ~dim:d vig in
        let payload_bytes = (1 lsl List.length vec) * byte_width in
        Obs.Metrics.observe "codegen.shuffle.rounds" (1 lsl List.length ext);
        Obs.Metrics.observe "codegen.shuffle.vec_bits" (List.length vec);
        Ok
          {
            src;
            dst;
            vec;
            common_thr;
            g;
            ext;
            rounds = 1 lsl List.length ext;
            shuffles_per_round = max 1 (payload_bytes / 4);
          }
    end
  end

let total_shuffles p = p.rounds * p.shuffles_per_round

let cost p =
  let c = Gpusim.Cost.zero () in
  c.Gpusim.Cost.shuffles <- total_shuffles p;
  (* Address computation and predication around each shuffle. *)
  c.Gpusim.Cost.alu <- 2 * total_shuffles p;
  c
