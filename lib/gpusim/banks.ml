type access = { addr : int; bytes : int }

let transaction_bytes = 128

(* Phases are the maximal runs of accesses, in lane order, whose bytes
   fit one 128-byte transaction; an access larger than a transaction is
   a phase of its own.  Each phase costs the largest number of distinct
   words it requests from one bank, and at least one wavefront.  Word
   and bank ids are OCaml's truncating [/] and [mod], for the negative
   addresses of an out-of-range access too.

   [count] returns the wavefronts and the phases.  A phase's words go
   to one scratch array, sorted in place to drop repeats, so a phase
   allocates nothing. *)
let count machine accesses =
  let word_bytes = machine.Machine.bank_bytes and num_banks = machine.Machine.num_banks in
  (* [w mod num_banks] lies in [(-num_banks, num_banks)]. *)
  let bank w = (w mod num_banks) + num_banks in
  let load = Array.make (2 * num_banks) 0 in
  let words = ref (Array.make 64 0) and n = ref 0 in
  let push a =
    for w = a.addr / word_bytes to (a.addr + a.bytes - 1) / word_bytes do
      if !n = Array.length !words then begin
        let grown = Array.make (2 * !n) 0 in
        Array.blit !words 0 grown 0 !n;
        words := grown
      end;
      !words.(!n) <- w;
      incr n
    done
  in
  let close () =
    let ws = !words and len = !n in
    for i = 1 to len - 1 do
      let w = ws.(i) and j = ref (i - 1) in
      while !j >= 0 && ws.(!j) > w do
        ws.(!j + 1) <- ws.(!j);
        decr j
      done;
      ws.(!j + 1) <- w
    done;
    let best = ref 1 in
    for i = 0 to len - 1 do
      if i = 0 || ws.(i) <> ws.(i - 1) then begin
        let b = bank ws.(i) in
        load.(b) <- load.(b) + 1;
        if load.(b) > !best then best := load.(b)
      end
    done;
    for i = 0 to len - 1 do
      load.(bank ws.(i)) <- 0
    done;
    n := 0;
    !best
  in
  let rec go total phases bytes = function
    | [] -> ((if phases > 0 then total + close () else total), phases)
    | a :: rest ->
        if phases > 0 && bytes + a.bytes <= transaction_bytes then begin
          push a;
          go total phases (bytes + a.bytes) rest
        end
        else begin
          let total = if phases > 0 then total + close () else total in
          push a;
          go total (phases + 1) a.bytes rest
        end
  in
  go 0 0 0 accesses

let wavefronts machine accesses = fst (count machine accesses)

let conflict_free machine accesses =
  let wavefronts, phases = count machine accesses in
  wavefronts = phases

(* The rank rule of banks.mli, for an access whose addresses are linear
   in the lane index: no lane is visited. *)
let log2_exact what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Banks.linear_wavefronts: %s = %d is not a power of two" what n);
  Linear_layout.Util.log2 n

let linear_wavefronts machine ~byte_width ~vec_bits lanes =
  let word_bits = log2_exact "bank_bytes" machine.Machine.bank_bytes in
  let bank_bits = log2_exact "num_banks" machine.Machine.num_banks in
  let access_bits = log2_exact "byte_width" byte_width + vec_bits in
  let lane_bits = List.length lanes in
  let p = min lane_bits (max 0 (Linear_layout.Util.log2 transaction_bytes - access_bits)) in
  let word o = ((o lsr vec_bits) lsl access_bits) lsr word_bits in
  let s =
    List.init (max 0 (access_bits - word_bits)) (fun i -> 1 lsl i)
    @ List.map word (List.filteri (fun i _ -> i < p) lanes)
  in
  let bank_mask = (1 lsl bank_bits) - 1 in
  let conflict_bits =
    F2.Subspace.dim s - F2.Subspace.dim (List.map (fun w -> w land bank_mask) s)
  in
  1 lsl (lane_bits - p + conflict_bits)
