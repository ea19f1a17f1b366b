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

   [start machine] readies the bank model both entry points share;
   [feed sc addr bytes] adds one active lane's access, in lane order,
   and [finish sc] returns the count.  {!wavefronts} feeds it access
   records, {!wavefronts_row} a warp's element-offset row without
   building records.

   This is the hot inner loop of both the interpreter and the static
   cost analyzer (one call per warp per shared-memory instruction), so
   it avoids the obvious implementations' costs: no hash table, no
   closure-driven sort (touched words land in a flat scratch array and
   are insertion-sorted — lane-ordered addresses are nearly sorted
   already, so the sort is close to linear), no allocation per call
   (the counters and the word array are one per-domain scratch, reset
   as they are used), and the divisions by [bank_bytes] / [num_banks]
   collapse to shifts and masks when the machine's values are powers of
   two (they always are in practice).  A call runs to completion before
   the next starts on the same domain, so one scratch serves them all.

   Negative word ids (out-of-range programs) keep the historical
   behaviour of occupying their own banks: bank ids are offset into the
   upper half of a [2 * num_banks] counter array, so [w mod num_banks]
   of either sign indexes without clamping. *)
type scratch = {
  mutable counts : int array;  (** all zero between phases *)
  mutable words : int array;
  mutable nwords : int;
  mutable total : int;
  mutable cur_bytes : int;
  mutable in_phase : bool;
  mutable word_bytes : int;
  mutable word_shift : int;  (** [log2 word_bytes], or [-1] *)
  mutable num_banks : int;
  mutable bank_mask : int;  (** [num_banks - 1], or [-1] *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        counts = [||];
        words = Array.make 128 0;
        nwords = 0;
        total = 0;
        cur_bytes = 0;
        in_phase = false;
        word_bytes = 1;
        word_shift = 0;
        num_banks = 1;
        bank_mask = 0;
      })

let start machine =
  let sc = Domain.DLS.get scratch_key in
  let word_bytes = machine.Machine.bank_bytes and num_banks = machine.Machine.num_banks in
  sc.word_bytes <- word_bytes;
  sc.word_shift <-
    (if word_bytes > 0 && word_bytes land (word_bytes - 1) = 0 then begin
       let s = ref 0 and v = ref word_bytes in
       while !v > 1 do
         incr s;
         v := !v lsr 1
       done;
       !s
     end
     else -1);
  sc.num_banks <- num_banks;
  sc.bank_mask <- (if num_banks > 0 && num_banks land (num_banks - 1) = 0 then num_banks - 1 else -1);
  if Array.length sc.counts < 2 * num_banks then sc.counts <- Array.make (2 * num_banks) 0;
  sc.nwords <- 0;
  sc.total <- 0;
  sc.cur_bytes <- 0;
  sc.in_phase <- false;
  sc

let push sc w =
  let n = sc.nwords in
  if n = Array.length sc.words then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit sc.words 0 grown 0 n;
    sc.words <- grown
  end;
  sc.words.(n) <- w;
  sc.nwords <- n + 1

(* Close a phase: sort its words, count distinct words per bank, and
   leave the counters zeroed for the next phase. *)
let flush sc =
  let ws = sc.words and n = sc.nwords and counts = sc.counts in
  let num_banks = sc.num_banks and bank_mask = sc.bank_mask in
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
  sc.nwords <- 0;
  sc.total <- sc.total + !best

let word_of sc x = if x >= 0 && sc.word_shift >= 0 then x lsr sc.word_shift else x / sc.word_bytes

let feed sc addr bytes =
  if sc.in_phase && sc.cur_bytes + bytes > transaction_bytes then begin
    flush sc;
    sc.cur_bytes <- 0
  end;
  sc.in_phase <- true;
  sc.cur_bytes <- sc.cur_bytes + bytes;
  for w = word_of sc addr to word_of sc (addr + bytes - 1) do
    push sc w
  done

let finish sc =
  if sc.in_phase then flush sc;
  sc.total

let wavefronts machine accesses =
  match accesses with
  | [] -> 0
  | _ ->
      let sc = start machine in
      List.iter (fun a -> feed sc a.addr a.bytes) accesses;
      finish sc

let wavefronts_row machine ~byte_width ~bytes row =
  if Array.length row = 0 then 0
  else begin
    let sc = start machine in
    for l = 0 to Array.length row - 1 do
      feed sc (row.(l) * byte_width) bytes
    done;
    finish sc
  end

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
