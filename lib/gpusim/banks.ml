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

(* One warp-wide instruction's wavefront count, as a single greedy pass:
   accesses are packed into 128-byte phases exactly as {!phases} does,
   and each phase contributes the maximum, over banks, of the number of
   distinct words it requests from that bank.

   [simulate machine iter] is the bank model both entry points share:
   [iter feed] calls [feed addr bytes] once per active lane, in lane
   order.  {!wavefronts} feeds it access records, {!wavefronts_row} a
   warp's element-offset row without building records.

   This is the hot inner loop of both the interpreter and the static
   cost analyzer (one call per warp per shared-memory instruction), so
   it avoids the obvious implementations' costs: no hash table and no
   closure-driven sort (touched words land in a flat scratch array and
   are insertion-sorted — lane-ordered addresses are nearly sorted
   already, so the sort is close to linear), and the divisions by
   [bank_bytes] / [num_banks] collapse to shifts and masks when the
   machine's values are powers of two (they always are in practice).

   Negative word ids (out-of-range programs) keep the historical
   behaviour of occupying their own banks: bank ids are offset into the
   upper half of a [2 * num_banks] counter array, so [w mod num_banks]
   of either sign indexes without clamping. *)
let simulate machine iter =
  let word_bytes = machine.Machine.bank_bytes in
  let num_banks = machine.Machine.num_banks in
  let word_shift =
    if word_bytes > 0 && word_bytes land (word_bytes - 1) = 0 then begin
      let s = ref 0 and v = ref word_bytes in
      while !v > 1 do
        incr s;
        v := !v lsr 1
      done;
      !s
    end
    else -1
  in
  let bank_mask =
    if num_banks > 0 && num_banks land (num_banks - 1) = 0 then num_banks - 1 else -1
  in
  let divw x = if x >= 0 && word_shift >= 0 then x lsr word_shift else x / word_bytes in
  let counts = Array.make (2 * num_banks) 0 in
  let words = ref (Array.make 128 0) in
  let nwords = ref 0 in
  let push w =
    let n = !nwords in
    if n = Array.length !words then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit !words 0 grown 0 n;
      words := grown
    end;
    !words.(n) <- w;
    nwords := n + 1
  in
  let total = ref 0 in
  let flush () =
    let ws = !words and n = !nwords in
    for i = 1 to n - 1 do
      let v = ws.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && ws.(!j) > v do
        ws.(!j + 1) <- ws.(!j);
        decr j
      done;
      ws.(!j + 1) <- v
    done;
    let best = ref 1 and prev = ref min_int in
    for k = 0 to n - 1 do
      let w = ws.(k) in
      if w <> !prev then begin
        prev := w;
        let b =
          if w >= 0 && bank_mask >= 0 then (w land bank_mask) + num_banks
          else (w mod num_banks) + num_banks
        in
        counts.(b) <- counts.(b) + 1;
        if counts.(b) > !best then best := counts.(b)
      end
    done;
    Array.fill counts 0 (2 * num_banks) 0;
    nwords := 0;
    total := !total + !best
  in
  let cur_bytes = ref 0 and in_phase = ref false in
  iter (fun addr bytes ->
      if !in_phase && !cur_bytes + bytes > transaction_bytes then begin
        flush ();
        cur_bytes := 0
      end;
      in_phase := true;
      cur_bytes := !cur_bytes + bytes;
      let first = divw addr and last = divw (addr + bytes - 1) in
      for w = first to last do
        push w
      done);
  if !in_phase then flush ();
  !total

let wavefronts machine accesses =
  match accesses with
  | [] -> 0
  | _ -> simulate machine (fun feed -> List.iter (fun a -> feed a.addr a.bytes) accesses)

let wavefronts_row machine ~byte_width ~bytes row =
  if Array.length row = 0 then 0
  else
    simulate machine (fun feed ->
        for l = 0 to Array.length row - 1 do
          feed (row.(l) * byte_width) bytes
        done)

let conflict_free machine accesses =
  accesses = [] || wavefronts machine accesses = List.length (phases machine accesses)
