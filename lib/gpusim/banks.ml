type access = { addr : int; bytes : int }

let transaction_bytes = 128

let phases machine accesses =
  ignore machine;
  let rec go current current_bytes acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | a :: rest ->
        if current <> [] && current_bytes + a.bytes > transaction_bytes then
          go [ a ] a.bytes (List.rev current :: acc) rest
        else go (a :: current) (current_bytes + a.bytes) acc rest
  in
  go [] 0 [] accesses

(* Each phase costs the largest number of distinct words it requests
   from one bank, and at least one wavefront.  Word and bank ids are
   OCaml's truncating [/] and [mod], for the negative addresses of an
   out-of-range access too. *)
let wavefronts machine accesses =
  let word_bytes = machine.Machine.bank_bytes and num_banks = machine.Machine.num_banks in
  (* [w mod num_banks] lies in [(-num_banks, num_banks)]. *)
  let load = Array.make (2 * num_banks) 0 in
  let phase accesses =
    let words =
      List.concat_map
        (fun a ->
          let first = a.addr / word_bytes in
          List.init
            (max 0 (((a.addr + a.bytes - 1) / word_bytes) - first + 1))
            (fun i -> first + i))
        accesses
    in
    Array.fill load 0 (2 * num_banks) 0;
    List.fold_left
      (fun best w ->
        let b = (w mod num_banks) + num_banks in
        load.(b) <- load.(b) + 1;
        max best load.(b))
      1 (List.sort_uniq Int.compare words)
  in
  List.fold_left (fun total p -> total + phase p) 0 (phases machine accesses)

let conflict_free machine accesses =
  accesses = [] || wavefronts machine accesses = List.length (phases machine accesses)

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
