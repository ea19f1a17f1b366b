(* Every operation reduces with {!Bitmatrix.reduce}, the rule
   {!Bitmatrix.factorize} runs per column, against one pivot table per
   loop: slot [k] holds the basis vector whose most significant bit is
   [k], 0 when none.  No combinations are tracked, so the number of
   vectors is not limited. *)

(* Reduce [v] against [t] and store a non-zero remainder as the pivot
   of its most significant bit.  The remainder is returned: [v]
   enlarged the span iff it is non-zero. *)
let insert t v =
  let r = Bitmatrix.reduce t v in
  if r <> 0 then t.(Bitvec.msb r) <- r;
  r

let table vs =
  let t = Array.make Sys.int_size 0 in
  List.iter (fun v -> ignore (insert t v)) vs;
  t

(* The pivots of [t], in decreasing most-significant-bit order. *)
let pivots t =
  let out = ref [] in
  Array.iter (fun p -> if p <> 0 then out := p :: !out) t;
  !out

let echelon_basis vs = pivots (table vs)
let dim vs = List.length (echelon_basis vs)
let reduce basis v = Bitmatrix.reduce (table basis) v
let mem basis v = reduce basis v = 0
let independent_from basis v = reduce basis v <> 0

let extend basis candidates =
  let t = table basis in
  List.filter (fun v -> insert t v <> 0) candidates

let complete_basis ~dim:d basis = extend basis (List.init d Bitvec.unit)

let intersection a b =
  (* Zassenhaus: echelonize rows [(v, v)] for v in a and [(w, 0)] for w in b
     over F2^(2d); pivots whose left block is zero have right blocks
     forming a basis of the intersection. *)
  let d = List.fold_left (fun acc v -> max acc (Bitvec.width v)) 0 (a @ b) in
  table (List.map (fun v -> (v lsl d) lor v) a @ List.map (fun w -> w lsl d) b)
  |> pivots
  |> List.filter (fun p -> p lsr d = 0)

(* Element [i] differs from element [i land (i - 1)] (its lowest set
   bit cleared) by the basis vector that bit selects, so each element
   costs one XOR. *)
let span_elements basis =
  let bs = Array.of_list basis in
  let t = Array.make (1 lsl Array.length bs) 0 in
  for i = 1 to Array.length t - 1 do
    t.(i) <- t.(i land (i - 1)) lxor bs.(Bitvec.ntz i)
  done;
  t

let equal_span a b =
  let spans t = List.for_all (fun v -> Bitmatrix.reduce t v = 0) in
  spans (table a) b && spans (table b) a
