type t = { rows : int; cols : Bitvec.t array }

let check_rows name rows =
  if rows < 0 || rows > Bitvec.max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitmatrix.%s: %d rows exceed the %d-bit single-word limit (Sys.int_size = %d)" name
         rows Bitvec.max_bits Sys.int_size)

let make ~rows cols =
  check_rows "make" rows;
  for j = 0 to Array.length cols - 1 do
    if cols.(j) lsr rows <> 0 then invalid_arg "Bitmatrix.make: column exceeds row count"
  done;
  { rows; cols }

let rows m = m.rows
let cols m = Array.length m.cols
let column m j = m.cols.(j)
let columns m = Array.copy m.cols
let get m i j = Bitvec.bit m.cols.(j) i
let identity n = { rows = n; cols = Array.init n Bitvec.unit }
let zero ~rows ~cols = make ~rows (Array.make cols 0)

(* Closure-free and branch-free per bit: walk the input's bits with a
   shift until none are left, masking each column with [-(bit)] (all
   ones or zero); a data-dependent branch here mispredicts on about half
   the bits of a random input.  Bits at or above the column count select
   nothing. *)
let apply m v =
  let cols = m.cols in
  let n = Array.length cols in
  let v = ref (if n >= Sys.int_size then v else v land ((1 lsl n) - 1)) in
  let acc = ref 0 and j = ref 0 in
  while !v <> 0 do
    acc := !acc lxor (cols.(!j) land -(!v land 1));
    v := !v lsr 1;
    incr j
  done;
  !acc

let mul a b =
  if cols a <> rows b then invalid_arg "Bitmatrix.mul: dimension mismatch";
  { rows = a.rows; cols = Array.map (apply a) b.cols }

let transpose m =
  (* Word-parallel: instead of probing every (i, j) entry, scan each
     column's set bits with [v land -v], touching only the non-zero
     entries — O(cols + popcount) rather than O(rows * cols). *)
  let n = cols m in
  if n > Bitvec.max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitmatrix.transpose: %d columns exceed the %d-bit single-word limit"
         n Bitvec.max_bits);
  let out = Array.make (max 1 m.rows) 0 in
  Array.iteri
    (fun j c ->
      let bit = 1 lsl j in
      let c = ref c in
      while !c <> 0 do
        let i = Bitvec.ntz !c in
        out.(i) <- out.(i) lor bit;
        c := !c land (!c - 1)
      done)
    m.cols;
  { rows = n; cols = (if m.rows = 0 then [||] else Array.sub out 0 m.rows) }

let block_diag a b =
  check_rows "block_diag" (a.rows + b.rows);
  let shifted = Array.map (fun c -> c lsl a.rows) b.cols in
  { rows = a.rows + b.rows; cols = Array.append a.cols shifted }

let divide_left m a =
  let na = cols a and ra = rows a in
  if cols m < na || m.rows < ra then None
  else
    let top_left_ok = ref true in
    for j = 0 to na - 1 do
      if m.cols.(j) <> a.cols.(j) then top_left_ok := false
    done;
    if not !top_left_ok then None
    else
      let nb = cols m - na in
      let b = Array.make nb 0 in
      let ok = ref true in
      for j = 0 to nb - 1 do
        let c = m.cols.(na + j) in
        (* The remaining columns must live entirely in the high rows. *)
        if c land ((1 lsl ra) - 1) <> 0 then ok := false else b.(j) <- c lsr ra
      done;
      if !ok then Some { rows = m.rows - ra; cols = b } else None

(* {1 Echelon factorizations}

   Column echelon form with combination tracking.  The pivot with most
   significant bit [k] lives in slot [k] of two flat [int] arrays
   ([pivot_val]/[pivot_comb]; 0 in [pivot_val] marks an empty slot — a
   pivot value always has its slot bit set, so 0 is never a pivot), so
   reducing a vector is a single downward scan.  [comb] records which
   original columns were XOR-ed to obtain each value. *)

type echelon = {
  e_rank : int;
  e_rows : int;
  e_cols : int;
  e_pivot_cols : int;  (** bitmask of the column indices that became pivots *)
  e_src : int array;  (** the factored matrix's columns (defensive copy) *)
  pivot_val : int array;
  pivot_comb : int array;
}

let echelon_rank e = e.e_rank
let pivot_columns e = e.e_pivot_cols
let is_surjective_with e = e.e_rank = e.e_rows
let is_injective_with e = e.e_rank = e.e_cols
let is_invertible_with e = e.e_rows = e.e_cols && e.e_rank = e.e_rows

let echelon_pivots e =
  let out = ref [] in
  for k = Array.length e.pivot_val - 1 downto 0 do
    if e.pivot_val.(k) <> 0 then out := (e.pivot_val.(k), e.pivot_comb.(k)) :: !out
  done;
  !out

(* Reduce [v] (tracking [comb]) against the pivot arrays: XOR away the
   pivot stored at slot [msb v] until a set bit has no pivot (the
   stopping rule shared by every reduction in this module).  The slot
   index is always [< Array.length pval] because pivot values and the
   vectors reduced against them carry bits below [e_rows] only, so the
   unchecked accesses cannot go out of bounds. *)
let reduce_flat pval pcomb v comb =
  let v = ref v and comb = ref comb in
  let stop = ref false in
  while (not !stop) && !v <> 0 do
    let m = Bitvec.msb !v in
    let pv = Array.unsafe_get pval m in
    if pv = 0 then stop := true
    else begin
      v := !v lxor pv;
      comb := !comb lxor Array.unsafe_get pcomb m
    end
  done;
  (!v, !comb)

(* [reduce_flat] with a combination table of zeros tracks nothing. *)
let no_comb = Array.make Sys.int_size 0

let reduce pval v =
  if Array.length pval < Sys.int_size then
    invalid_arg "Bitmatrix.reduce: a pivot table needs Sys.int_size slots";
  fst (reduce_flat pval no_comb v 0)

(* One left-to-right pass: reduce each column against the pivots of the
   columns before it; a non-zero remainder becomes the pivot of its
   most significant bit.  Combinations are tracked in one word, hence
   the column limit. *)
let factorize m =
  let n = cols m in
  if n > Bitvec.max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitmatrix.factorize: %d columns exceed the %d-bit combination-tracking limit" n
         Bitvec.max_bits);
  let slots = max 1 m.rows in
  let pivot_val = Array.make slots 0 and pivot_comb = Array.make slots 0 in
  let rank = ref 0 and pivot_cols = ref 0 in
  for j = 0 to n - 1 do
    let v, comb = reduce_flat pivot_val pivot_comb (Array.unsafe_get m.cols j) (1 lsl j) in
    if v <> 0 then begin
      let slot = Bitvec.msb v in
      pivot_val.(slot) <- v;
      pivot_comb.(slot) <- comb;
      pivot_cols := !pivot_cols lor (1 lsl j);
      incr rank
    end
  done;
  {
    e_rank = !rank;
    e_rows = m.rows;
    e_cols = n;
    e_pivot_cols = !pivot_cols;
    e_src = Array.copy m.cols;
    pivot_val;
    pivot_comb;
  }

(* {2 Solving against a factorization} *)

let solve_with e b =
  let v, comb = reduce_flat e.pivot_val e.pivot_comb b 0 in
  if v = 0 then Some comb else None

let solve m b = solve_with (factorize m) b

let kernel_with e =
  (* A non-pivot column lies in the span of the pivots built from
     earlier columns, so reducing it (tracking its own unit
     combination) reaches zero and yields the unique kernel vector
     supported on the pivot columns plus itself — exactly what the
     incremental replay used to produce, one elimination cheaper. *)
  let ker = ref [] in
  for j = Array.length e.e_src - 1 downto 0 do
    if e.e_pivot_cols land (1 lsl j) = 0 then begin
      let v, comb = reduce_flat e.pivot_val e.pivot_comb e.e_src.(j) (Bitvec.unit j) in
      assert (v = 0);
      ker := comb :: !ker
    end
  done;
  !ker

let kernel m = kernel_with (factorize m)

(* [factorize]'s pass without combinations: only the count of non-zero
   remainders is kept, so no echelon is built and no column limit
   applies. *)
let rank m =
  let pivot_val = Array.make (max 1 m.rows) 0 in
  let rank = ref 0 in
  for j = 0 to cols m - 1 do
    let v = fst (reduce_flat pivot_val no_comb (Array.unsafe_get m.cols j) 0) in
    if v <> 0 then begin
      pivot_val.(Bitvec.msb v) <- v;
      incr rank
    end
  done;
  !rank
let is_surjective m = is_surjective_with (factorize m)
let is_injective m = is_injective_with (factorize m)
let is_invertible m = is_invertible_with (factorize m)

let is_identity m =
  m.rows = cols m && Array.for_all Fun.id (Array.mapi (fun j c -> c = Bitvec.unit j) m.cols)

let is_permutation m =
  (* Zero columns are allowed by design: they are the broadcasting
     inputs of a distributed layout (Definition 4.10) — a lane or warp
     bit that owns no element maps to 0.  Only the non-zero columns
     must be distinct one-hot vectors. *)
  let seen = Hashtbl.create 16 in
  Array.for_all
    (fun c ->
      if c = 0 then true
      else if Bitvec.popcount c <> 1 then false
      else if Hashtbl.mem seen c then false
      else (
        Hashtbl.add seen c ();
        true))
    m.cols

let right_inverse_with e =
  if not (is_surjective_with e) then
    invalid_arg "Bitmatrix.right_inverse: matrix is not surjective";
  let cols_out =
    Array.init e.e_rows (fun i ->
        match solve_with e (Bitvec.unit i) with
        | Some x -> x
        | None -> assert false)
  in
  { rows = e.e_cols; cols = cols_out }

let right_inverse m = right_inverse_with (factorize m)

let inverse_with e =
  if e.e_rows <> e.e_cols then invalid_arg "Bitmatrix.inverse: not square";
  right_inverse_with e

let inverse m =
  if m.rows <> cols m then invalid_arg "Bitmatrix.inverse: not square";
  right_inverse m

let equal a b = a.rows = b.rows && a.cols = b.cols

let pp ppf m =
  let n = cols m in
  Format.fprintf ppf "@[<v>";
  for i = m.rows - 1 downto 0 do
    Format.fprintf ppf "[";
    for j = 0 to n - 1 do
      Format.fprintf ppf "%d%s" (if get m i j then 1 else 0) (if j = n - 1 then "" else " ")
    done;
    Format.fprintf ppf "]";
    if i > 0 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
