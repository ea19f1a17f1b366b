type t = int

let zero = 0

(* The payload is a non-negative OCaml [int]: [Sys.int_size - 1] usable
   bits (62 on 64-bit platforms).  Shifting at or past that width is
   unspecified in OCaml and used to wrap silently into wrong answers;
   every entry point that mints a coordinate checks it loudly instead. *)
let max_bits = Sys.int_size - 1

let unit k =
  if k < 0 || k >= max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitvec.unit: coordinate %d out of range (single-word F2 vectors hold %d bits)"
         k max_bits)
  else 1 lsl k
let bit v k = v land (1 lsl k) <> 0
let add = ( lxor )

(* SWAR popcount on the 63-bit payload: fold pairs, nibbles, then sum
   bytes with a multiply. *)
let popcount v =
  let v = v - ((v lsr 1) land 0x5555555555555555) in
  let v = (v land 0x3333333333333333) + ((v lsr 2) land 0x3333333333333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (v * 0x0101010101010101) lsr 56 land 0xFF

let parity v = popcount v land 1 = 1
let dot a b = parity (a land b)

(* Branchy binary search instead of a per-bit loop: O(log w). *)
let msb v =
  if v = 0 then -1
  else begin
    let v = ref v and k = ref 0 in
    if !v lsr 32 <> 0 then begin k := !k + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin k := !k + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin k := !k + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin k := !k + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin k := !k + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then incr k;
    !k
  end

(* Number of trailing zeros: position of the least significant set bit. *)
let ntz v = if v = 0 then -1 else msb (v land -v)
let lsb = ntz
let width v = msb v + 1

let support v =
  let rec go k acc = if k < 0 then acc else go (k - 1) (if bit v k then k :: acc else acc) in
  go (msb v) []

let extract v ~pos ~len = (v lsr pos) land ((1 lsl len) - 1)

let insert v ~pos ~len field =
  let mask = ((1 lsl len) - 1) lsl pos in
  v land lnot mask lor ((field lsl pos) land mask)

let all n = List.init (1 lsl n) Fun.id
let equal = Int.equal
let compare = Int.compare

let to_string ~width:w v =
  let w = max w 1 in
  String.init w (fun i -> if bit v (w - 1 - i) then '1' else '0')

let pp ~width:w ppf v = Format.fprintf ppf "0b%s" (to_string ~width:w v)
