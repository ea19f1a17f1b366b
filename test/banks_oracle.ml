(* An independent list-based restatement of the bank model of
   [Gpusim.Banks.wavefronts] and [Gpusim.Banks.conflict_free]: split the
   access list into 128-byte phases, list every bank word each phase
   touches, drop repeats with [List.sort_uniq] and take the largest
   per-bank count.  The library counts each phase in a scratch array
   instead; test_gpusim holds it against this oracle on random access
   lists. *)

open Gpusim.Banks

let transaction_bytes = 128

let phases accesses =
  let rec go current current_bytes acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | a :: rest ->
        if current <> [] && current_bytes + a.bytes > transaction_bytes then
          go [ a ] a.bytes (List.rev current :: acc) rest
        else go (a :: current) (current_bytes + a.bytes) acc rest
  in
  go [] 0 [] accesses

let wavefronts (machine : Gpusim.Machine.t) accesses =
  let word_bytes = machine.Gpusim.Machine.bank_bytes
  and num_banks = machine.Gpusim.Machine.num_banks in
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
  List.fold_left (fun total p -> total + phase p) 0 (phases accesses)

let conflict_free machine accesses =
  accesses = [] || wavefronts machine accesses = List.length (phases accesses)
