open Linear_layout

let sector_bytes = 32

let transactions accesses =
  let sectors = Hashtbl.create 64 in
  List.iter
    (fun (addr, bytes) ->
      let first = addr / sector_bytes and last = (addr + bytes - 1) / sector_bytes in
      for s = first to last do
        Hashtbl.replace sectors s ()
      done)
    accesses;
  Hashtbl.length sectors

(* Column [j] of [m], the [k]-th basis vector of [dim]; raises unless
   it keeps the low [log2 vec] bits clear. *)
let aligned m ~vec ~w dim k j =
  let c = F2.Bitmatrix.column m j in
  if c land (vec - 1) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Coalesce.warp_sectors: %s basis vector %d maps to element %d, which is not a \
          multiple of vec = %d, so the %d-byte accesses are not aligned to their width"
         dim k c vec w);
  c

(* The closed form of the interface comment: every column an address is
   built from must keep the low [log2 vec] bits clear, and the sector
   count is then [2^rank] of the lane columns shifted down to sector
   granularity. *)
let warp_sectors layout ~byte_width ~vec =
  let m = Layout.to_matrix layout in
  let reg_bits = Layout.in_bits layout Dims.register in
  let lane_bits = Layout.in_bits layout Dims.lane in
  let w = vec * byte_width in
  for k = Util.log2 vec to reg_bits - 1 do
    ignore (aligned m ~vec ~w Dims.register k k)
  done;
  let shift = Util.log2 (max sector_bytes w) - Util.log2 byte_width in
  let lanes = Array.make lane_bits 0 in
  for k = 0 to lane_bits - 1 do
    lanes.(k) <- aligned m ~vec ~w Dims.lane k (reg_bits + k) lsr shift
  done;
  let rows = max 0 (F2.Bitmatrix.rows m - shift) in
  max 1 (w / sector_bytes) lsl F2.Bitmatrix.rank (F2.Bitmatrix.make ~rows lanes)

let instruction_name ~bits =
  if bits <= 8 then "v1.b8"
  else if bits <= 16 then "v1.b16"
  else if bits <= 32 then "v1.b32"
  else if bits <= 64 then "v2.b32"
  else "v4.b32"
