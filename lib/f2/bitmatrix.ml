type t = { rows : int; cols : Bitvec.t array }

let make ~rows cols =
  if rows < 0 || rows > Bitvec.max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitmatrix.make: %d rows exceed the %d-bit single-word limit (Sys.int_size = %d); \
          use F2.Packed for wider matrices"
         rows Bitvec.max_bits Sys.int_size);
  Array.iter
    (fun c ->
      if c lsr rows <> 0 then invalid_arg "Bitmatrix.make: column exceeds row count")
    cols;
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
         "Bitmatrix.transpose: %d columns exceed the %d-bit single-word limit; use F2.Packed"
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

let hconcat a b =
  if a.rows <> b.rows then invalid_arg "Bitmatrix.hconcat: row mismatch";
  { rows = a.rows; cols = Array.append a.cols b.cols }

let block_diag a b =
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
   original columns were XOR-ed to obtain each value.

   The same factorization can carry Method-of-Four-Russians lookup
   tables: pivot slots are grouped into windows of [t_k] consecutive
   bits, and for each window every 2^t_k pattern of those bits maps to
   the accumulated (value, comb) XOR that the one-pivot-at-a-time
   reduction would apply across the whole window — one table lookup
   instead of up to [t_k] pivot steps.  Tables are an acceleration
   only: they replay the naive reduction exactly (including its
   stop-at-first-uncovered-bit rule), so every result — pivot values,
   combinations, solutions, kernels — is bit-identical with and
   without them.  The qcheck differential suite in [test_f2.ml] pins
   this equivalence. *)

type tables = {
  t_k : int;  (** window width in bits, 1..8 *)
  t_built : int array;
      (** per-window pivot count at table-build time, or -1 for "no
          table yet".  A window whose live pivot count moved past this
          is stale: lookups then fall back to single pivot steps for
          the missing pivots, which keeps stale tables exact. *)
  t_debt : int array;
      (** naive pivot steps spent crossing each window since its last
          build — the amortization counter that triggers (re)builds
          during elimination (see {!echelonize_m4rm}) *)
  t_val : int array;  (** [(w lsl t_k) lor pattern] -> value XOR *)
  t_comb : int array;
  t_stop : int array;
      (** bit position where the naive reduction halts inside the
          window (its table knew no pivot there), or -1 when the whole
          window pattern reduces away.  Kept as three flat arrays: an
          interleaved stride-4 store was measured slower here — the
          extra index shift costs more than locality buys while the
          whole table set fits in L1. *)
}

type echelon = {
  e_rank : int;
  e_rows : int;
  e_cols : int;
  e_pivot_cols : int;  (** bitmask of the column indices that became pivots *)
  e_src : int array;  (** the factored matrix's columns (defensive copy) *)
  pivot_val : int array;
  pivot_comb : int array;
  mutable tables : tables option;
      (** lazily built / refreshed M4RM tables; see {!prepare} *)
}

let echelon_rank e = e.e_rank
let is_surjective_with e = e.e_rank = e.e_rows
let is_injective_with e = e.e_rank = e.e_cols
let is_invertible_with e = e.e_rows = e.e_cols && e.e_rank = e.e_rows

let echelon_pivots e =
  let out = ref [] in
  for k = Array.length e.pivot_val - 1 downto 0 do
    if e.pivot_val.(k) <> 0 then out := (e.pivot_val.(k), e.pivot_comb.(k)) :: !out
  done;
  !out

(* Reduce [v] (tracking [comb]) against unboxed pivot arrays: XOR away
   the pivot stored at slot [msb v] until a set bit has no pivot (the
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

(* Tabled reduction: walk the windows from the top one down.  A pivot's
   most significant bit is its slot, so applying pivots from window [w]
   never sets bits above [w] — once the windows above are clear they
   stay clear, and each occupied window costs one table lookup (plus
   exact fallbacks: a window without a table does single pivot steps,
   and a stale entry that halts on a slot which has since gained a live
   pivot applies that pivot from the live arrays and re-enters the
   window).  Every branch replays the naive step sequence verbatim, so
   the fixed point is bit-identical to {!reduce_flat}'s. *)
let reduce_tabled t pval pcomb v comb =
  if v = 0 then (v, comb)
  else begin
    let kk = t.t_k in
    let mask = (1 lsl kk) - 1 in
    let tv = t.t_val and tc = t.t_comb and ts = t.t_stop in
    let w = ref (Bitvec.msb v / kk) in
    let v = ref v and comb = ref comb in
    let stop = ref false in
    while (not !stop) && !w >= 0 do
      let base = !w * kk in
      let p = (!v lsr base) land mask in
      if p = 0 then decr w
      else if Array.unsafe_get t.t_built !w < 0 then begin
        (* No table for this window yet: single naive step at the
           window's top set bit (= [msb v], since higher windows are
           clear). *)
        let m = base + Bitvec.msb p in
        let pv = Array.unsafe_get pval m in
        if pv = 0 then stop := true
        else begin
          Array.unsafe_set t.t_debt !w (Array.unsafe_get t.t_debt !w + 1);
          v := !v lxor pv;
          comb := !comb lxor Array.unsafe_get pcomb m
        end
      end
      else begin
        let idx = (!w lsl kk) lor p in
        v := !v lxor Array.unsafe_get tv idx;
        comb := !comb lxor Array.unsafe_get tc idx;
        let halt = Array.unsafe_get ts idx in
        if halt < 0 then decr w (* the whole window pattern reduced away *)
        else begin
          (* The table believed slot [halt] uncovered; a pivot inserted
             after the build covers the staleness exactly. *)
          let pv = Array.unsafe_get pval halt in
          if pv = 0 then stop := true
          else begin
            Array.unsafe_set t.t_debt !w (Array.unsafe_get t.t_debt !w + 1);
            v := !v lxor pv;
            comb := !comb lxor Array.unsafe_get pcomb halt
          end
        end
      end
    done;
    (!v, !comb)
  end

let reduce_best tables pval pcomb v comb =
  match tables with
  | None -> reduce_flat pval pcomb v comb
  | Some t -> reduce_tabled t pval pcomb v comb

(* (Re)build window [w]'s lookup table from the current pivots.  Entry
   [p] is defined by recursion on the naive reduction: clear the top
   set bit of [p] with its pivot (whose in-window bits are all at or
   below that bit, so the reduced pattern is strictly smaller and
   already tabled), or record the halt position.  Iterating slots
   bottom-up and, per slot [b], the patterns whose top bit is [b]
   visits patterns in increasing order with no per-entry bit search;
   the unchecked accesses stay in bounds because every index is
   [off + p] with [p <= mask].  Patterns with bits at or above the row
   count are unreachable (reduced vectors carry bits below [e_rows])
   and keep their zero initialization. *)
let build_window t pval pcomb ~w =
  let kk = t.t_k in
  let base = w * kk in
  let off = w lsl kk in
  let mask = (1 lsl kk) - 1 in
  let tv = t.t_val and tc = t.t_comb and ts = t.t_stop in
  Array.unsafe_set tv off 0;
  Array.unsafe_set tc off 0;
  Array.unsafe_set ts off (-1);
  let count = ref 0 in
  let hi = min kk (Array.length pval - base) in
  (* A full window never halts — every entry's chain ends at the empty
     pattern — so its halt column is uniformly -1: already true on a
     first build (-1 is the fresh-table initialization) and restorable
     with one flat fill on a rebuild over a stale partial table.
     Either way the live loops below then skip halt entries entirely,
     which makes the once-per-window fill build (the common case for
     full-rank matrices) the cheapest build form.  *)
  let virgin = Array.unsafe_get t.t_built w < 0 in
  let fullwin =
    let all = ref (hi > 0) in
    for b = 0 to hi - 1 do
      if Array.unsafe_get pval (base + b) = 0 then all := false
    done;
    !all
  in
  if fullwin && not virgin then Array.fill ts off (1 lsl kk) (-1);
  for b = 0 to hi - 1 do
    let slot = base + b in
    let pv = Array.unsafe_get pval slot in
    if pv = 0 then begin
      (* Value and combination entries under an empty top slot are
         invariantly zero: they start zero and, pivot slots being
         write-once, every earlier build of this window saw the slot
         empty too and wrote zero.  Only the halt position needs
         setting, and only on the first build (later builds see the
         slot still empty, so the halt entry is already in place). *)
      if virgin then
        for p = 1 lsl b to (1 lsl (b + 1)) - 1 do
          Array.unsafe_set ts (off + p) slot
        done
    end
    else begin
      incr count;
      let pc = Array.unsafe_get pcomb slot in
      let pw = (pv lsr base) land mask in
      if fullwin then
        for p = 1 lsl b to (1 lsl (b + 1)) - 1 do
          let idx = off + p in
          let p' = p lxor pw in
          Array.unsafe_set tv idx (pv lxor Array.unsafe_get tv (off + p'));
          Array.unsafe_set tc idx (pc lxor Array.unsafe_get tc (off + p'))
        done
      else
        for p = 1 lsl b to (1 lsl (b + 1)) - 1 do
          let idx = off + p in
          let p' = p lxor pw in
          Array.unsafe_set tv idx (pv lxor Array.unsafe_get tv (off + p'));
          Array.unsafe_set tc idx (pc lxor Array.unsafe_get tc (off + p'));
          Array.unsafe_set ts idx (Array.unsafe_get ts (off + p'))
        done
    end
  done;
  t.t_debt.(w) <- 0;
  t.t_built.(w) <- !count

(* Auto-selected window width: M4RI's ~0.75 log2 heuristic clamped to
   the 62-bit single-word regime.  Small matrices keep narrow windows
   so table construction never dominates. *)
let auto_k rows = if rows <= 20 then 3 else 4

let fresh_tables ~rows ~k =
  let kk = max 1 (min 8 k) in
  let wins = max 1 ((max 1 rows + kk - 1) / kk) in
  {
    t_k = kk;
    t_built = Array.make wins (-1);
    t_debt = Array.make wins 0;
    t_val = Array.make (wins lsl kk) 0;
    t_comb = Array.make (wins lsl kk) 0;
    t_stop = Array.make (wins lsl kk) (-1);
  }

let live_window_count pval ~kk ~w =
  let base = w * kk in
  let count = ref 0 in
  for b = base to min (base + kk) (Array.length pval) - 1 do
    if pval.(b) <> 0 then incr count
  done;
  !count

(* Build (or refresh) every window table from the final pivot set.
   Idempotent and cheap when nothing changed: a window is rebuilt only
   when its live pivot count differs from the count at build time
   (pivots are only ever added, never removed or replaced). *)
let prepare e =
  let t =
    match e.tables with
    | Some t -> t
    | None ->
        let t = fresh_tables ~rows:e.e_rows ~k:(auto_k e.e_rows) in
        e.tables <- Some t;
        t
  in
  for w = 0 to Array.length t.t_built - 1 do
    if t.t_built.(w) <> live_window_count e.pivot_val ~kk:t.t_k ~w then
      build_window t e.pivot_val e.pivot_comb ~w
  done

(* {2 The two elimination algorithms} *)

(* Reference pivot-at-a-time elimination: the historical algorithm,
   kept verbatim as the baseline half of the m4rm-vs-pivot benchmark
   pair and as the semantic reference the differential suite compares
   against.  Pivots live in a boxed option array exactly as before. *)
let reduce_pivots pivots v comb =
  let v = ref v and comb = ref comb in
  let k = ref (Bitvec.msb !v) in
  let reduced = ref false in
  while !k >= 0 && not !reduced do
    match pivots.(!k) with
    | Some (pv, pc) ->
        v := !v lxor pv;
        comb := !comb lxor pc;
        while !k >= 0 && not (Bitvec.bit !v !k) do
          decr k
        done
    | None -> reduced := true
  done;
  (!v, !comb)

let guard_comb_width name m =
  if cols m > Bitvec.max_bits then
    invalid_arg
      (Printf.sprintf
         "Bitmatrix.%s: %d columns exceed the %d-bit combination-tracking limit; use \
          F2.Packed for wider matrices"
         name (cols m) Bitvec.max_bits)

let echelonize m =
  guard_comb_width "echelonize" m;
  let pivots = Array.make (max 1 m.rows) None in
  let rank = ref 0 in
  let pivot_cols = ref 0 in
  Array.iteri
    (fun j c ->
      let v, comb = reduce_pivots pivots c (Bitvec.unit j) in
      if v <> 0 then begin
        pivots.(Bitvec.msb v) <- Some (v, comb);
        pivot_cols := !pivot_cols lor (1 lsl j);
        incr rank
      end)
    m.cols;
  let n = Array.length pivots in
  let pivot_val = Array.make n 0 and pivot_comb = Array.make n 0 in
  Array.iteri
    (fun k p ->
      match p with
      | Some (pv, pc) ->
          pivot_val.(k) <- pv;
          pivot_comb.(k) <- pc
      | None -> ())
    pivots;
  {
    e_rank = !rank;
    e_rows = m.rows;
    e_cols = cols m;
    e_pivot_cols = !pivot_cols;
    e_src = Array.copy m.cols;
    pivot_val;
    pivot_comb;
    tables = None;
  }

(* Table-driven (Method of Four Russians) elimination.  Columns are
   processed in the same left-to-right order as {!echelonize} and every
   reduction replays the naive step sequence (via the exact table
   fallbacks above), so the resulting factorization — pivot values,
   combinations, rank, pivot columns — is identical; only the cost per
   reduced column drops from one XOR per pivot to one lookup per
   window.  Two triggers pay for a window's 2^k-entry build: the window
   filling (every slot holds a pivot — the table then never goes stale,
   pivot slots being write-once), or the window's accumulated naive
   steps exceeding the build cost (the [t_debt] counter).  The second
   trigger is the amortization guarantee: table construction never
   costs more than the naive work it replaces, so rank-deficient
   matrices — whose windows may never fill — still table their busy
   windows and degrade gracefully elsewhere. *)
let echelonize_m4rm ?k m =
  guard_comb_width "echelonize_m4rm" m;
  let rows = m.rows in
  let kk = max 1 (min 8 (match k with Some k -> k | None -> auto_k rows)) in
  let n = max 1 rows in
  let pivot_val = Array.make n 0 and pivot_comb = Array.make n 0 in
  let t = fresh_tables ~rows ~k:kk in
  (* Live pivots per window, against each window's slot capacity. *)
  let wins = Array.length t.t_built in
  let pivn = Array.make wins 0 in
  let capacity w = min kk (n - (w * kk)) in
  let tv = t.t_val and tc = t.t_comb and ts = t.t_stop in
  let tb = t.t_built and td = t.t_debt in
  let mask = (1 lsl kk) - 1 in
  (* Count of windows holding a table; once every window has one the
     per-column walk drops its table-presence test entirely. *)
  let nbuilt = ref 0 in
  (* Set whenever a naive step charged debt somewhere — the amortized
     rebuild scan below only runs then, so debt-free factorizations
     (every steady-state column) never pay for it. *)
  let debt_dirty = ref false in
  let rank = ref 0 in
  let pivot_cols = ref 0 in
  let ncols = Array.length m.cols in
  for j = 0 to ncols - 1 do
    (* The window-walking reduction of {!reduce_tabled}, inlined with
       the table arrays hoisted and the window base kept as a running
       counter — this loop is the whole cost of the factorization, and
       the differential suite pins it against the boxed reference. *)
    let v = ref (Array.unsafe_get m.cols j) and comb = ref (1 lsl j) in
    if !v <> 0 && !nbuilt = wins then begin
      (* Steady state: every window is tabled, so the walk is pure
         lookups (plus the exact stale-halt fallback).  For a full-rank
         62x62 matrix this loop carries most columns. *)
      let w = ref (Bitvec.msb !v / kk) in
      let base = ref (!w * kk) in
      let stop = ref false in
      while (not !stop) && !w >= 0 do
        let p = (!v lsr !base) land mask in
        if p = 0 then begin
          decr w;
          base := !base - kk
        end
        else begin
          let idx = (!w lsl kk) lor p in
          v := !v lxor Array.unsafe_get tv idx;
          comb := !comb lxor Array.unsafe_get tc idx;
          let halt = Array.unsafe_get ts idx in
          if halt < 0 then begin
            decr w;
            base := !base - kk
          end
          else begin
            let pv = Array.unsafe_get pivot_val halt in
            if pv = 0 then stop := true
            else begin
              Array.unsafe_set td !w (Array.unsafe_get td !w + 1);
              debt_dirty := true;
              v := !v lxor pv;
              comb := !comb lxor Array.unsafe_get pivot_comb halt
            end
          end
        end
      done
    end
    else if !v <> 0 then begin
      let w = ref (Bitvec.msb !v / kk) in
      let base = ref (!w * kk) in
      let stop = ref false in
      while (not !stop) && !w >= 0 do
        let p = (!v lsr !base) land mask in
        if p = 0 then begin
          decr w;
          base := !base - kk
        end
        else if Array.unsafe_get tb !w < 0 then begin
          let slot = !base + Bitvec.msb p in
          let pv = Array.unsafe_get pivot_val slot in
          if pv = 0 then stop := true
          else begin
            Array.unsafe_set td !w (Array.unsafe_get td !w + 1);
            debt_dirty := true;
            v := !v lxor pv;
            comb := !comb lxor Array.unsafe_get pivot_comb slot
          end
        end
        else begin
          let idx = (!w lsl kk) lor p in
          v := !v lxor Array.unsafe_get tv idx;
          comb := !comb lxor Array.unsafe_get tc idx;
          let halt = Array.unsafe_get ts idx in
          if halt < 0 then begin
            decr w;
            base := !base - kk
          end
          else begin
            let pv = Array.unsafe_get pivot_val halt in
            if pv = 0 then stop := true
            else begin
              Array.unsafe_set td !w (Array.unsafe_get td !w + 1);
              debt_dirty := true;
              v := !v lxor pv;
              comb := !comb lxor Array.unsafe_get pivot_comb halt
            end
          end
        end
      done
    end;
    if !v <> 0 then begin
      let slot = Bitvec.msb !v in
      pivot_val.(slot) <- !v;
      pivot_comb.(slot) <- !comb;
      pivot_cols := !pivot_cols lor (1 lsl j);
      incr rank;
      let w = slot / kk in
      pivn.(w) <- pivn.(w) + 1;
      (* Build early (2 pivots already amortize a 2^k build at these
         window widths) and again when the window fills — the filled
         table is final, pivot slots being write-once.  (Building only
         at fill was measured slower: the naive steps every column
         spends crossing not-yet-tabled windows outweigh the saved
         builds.) *)
      if pivn.(w) = 2 || pivn.(w) = capacity w then begin
        if Array.unsafe_get tb w < 0 then incr nbuilt;
        build_window t pivot_val pivot_comb ~w
      end
    end;
    (* Amortized (re)builds: a window that cost more naive steps than a
       table build since its last build gets (re)tabled.  Checked every
       few columns — deferral only delays the build by a bounded number
       of extra naive steps. *)
    if !debt_dirty && j land 3 = 3 then begin
      debt_dirty := false;
      for w = 0 to wins - 1 do
        if Array.unsafe_get td w >= 1 lsl (kk - 1)
           && Array.unsafe_get tb w < Array.unsafe_get pivn w
        then begin
          if Array.unsafe_get tb w < 0 then incr nbuilt;
          build_window t pivot_val pivot_comb ~w
        end
      done
    end
  done;
  {
    e_rank = !rank;
    e_rows = rows;
    e_cols = cols m;
    e_pivot_cols = !pivot_cols;
    e_src = Array.copy m.cols;
    pivot_val;
    pivot_comb;
    tables = Some t;
  }

(* The production entry point: table-driven elimination with the
   auto-selected window width.  [echelonize] remains the reference. *)
let factorize m = echelonize_m4rm m

(* {2 Solving against a factorization} *)

let solve_with e b =
  let v, comb = reduce_best e.tables e.pivot_val e.pivot_comb b 0 in
  if v = 0 then Some comb else None

let solve_many e bs =
  prepare e;
  Array.map (fun b -> solve_with e b) bs

let solve m b = solve_with (factorize m) b

let kernel_with e =
  (* A non-pivot column lies in the span of the pivots built from
     earlier columns, so reducing it (tracking its own unit
     combination) reaches zero and yields the unique kernel vector
     supported on the pivot columns plus itself — exactly what the
     incremental replay used to produce, one elimination cheaper. *)
  prepare e;
  let ker = ref [] in
  for j = Array.length e.e_src - 1 downto 0 do
    if e.e_pivot_cols land (1 lsl j) = 0 then begin
      let v, comb =
        reduce_best e.tables e.pivot_val e.pivot_comb e.e_src.(j) (Bitvec.unit j)
      in
      assert (v = 0);
      ker := comb :: !ker
    end
  done;
  !ker

let kernel m = kernel_with (factorize m)

let rank m = (factorize m).e_rank
let is_surjective m = is_surjective_with (factorize m)
let is_injective m = is_injective_with (factorize m)
let is_invertible m = is_invertible_with (factorize m)

let is_identity m =
  m.rows = cols m && Array.for_all Fun.id (Array.mapi (fun j c -> c = Bitvec.unit j) m.cols)

let is_zero m = Array.for_all (fun c -> c = 0) m.cols

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
  prepare e;
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

let solve_matrix e b =
  if b.rows <> e.e_rows then invalid_arg "Bitmatrix.solve_matrix: dimension mismatch";
  prepare e;
  let n = cols b in
  let out = Array.make n 0 in
  let ok = ref true in
  for j = 0 to n - 1 do
    match solve_with e b.cols.(j) with
    | Some x -> out.(j) <- x
    | None -> ok := false
  done;
  if !ok then Some { rows = e.e_cols; cols = out } else None

let compose_many e bs = Array.map (fun b -> solve_matrix e b) bs

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
