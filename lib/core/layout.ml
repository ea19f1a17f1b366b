exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Invariants:
   - [ins] and [outs] are sorted by [Dims.compare] and duplicate-free;
   - [m] is the layout's matrix under the canonical flattening: one
     column per input bit and one row per output bit, the first
     dimension in canonical order occupying the low bits;
   - [h] is [hash_of ins outs m], stored by [mk] when the record is
     built: a pure function of the other fields, so polymorphic
     equality, comparison and hashing of values holding layouts agree
     with {!equal}. *)
type t = { ins : (string * int) array; outs : (string * int) array; m : F2.Bitmatrix.t; h : int }

(* {1 Internal helpers} *)

(* FNV-style mixing step (wrapping; [hash_of] clears the sign bit once). *)
let fnv h x = (h lxor x) * 0x01000193

(* One mix per dimension, every layout construction pays for it: a label
   enters through its length and its first and last characters (the
   built-in labels [register], [lane], [dim0], [dim1], ... differ
   there, and a collision only costs one structural comparison). *)
let hash_dims h dims =
  Array.fold_left
    (fun h (d, bits) ->
      let n = String.length d in
      let ends = if n = 0 then 0 else Char.code d.[0] lor (Char.code d.[n - 1] lsl 8) in
      fnv h (bits lor (n lsl 8) lor (ends lsl 16)))
    h dims

(* The structural hash of a layout, over every dimension and every raw
   column int (layouts are small: tens of ints).  Polymorphic
   [Hashtbl.hash] stops after a bounded number of nodes, which collides
   badly on layouts differing only in late columns. *)
let hash_of ins outs m =
  let h = ref (hash_dims (hash_dims 0x811c9dc5 ins) outs) in
  for j = 0 to F2.Bitmatrix.cols m - 1 do
    h := fnv !h (F2.Bitmatrix.column m j)
  done;
  !h land max_int

(* The one constructor of [t]: every layout is built here and carries
   its hash from birth. *)
let mk ins outs m = { ins; outs; m; h = hash_of ins outs m }

let check_dims what dims =
  let rec go = function
    | [] | [ _ ] -> ()
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then error "duplicate %s dimension %s" what a;
        go rest
  in
  List.iter (fun (d, bits) -> if bits < 0 then error "%s dim %s has negative bits" what d) dims;
  go (Dims.sort dims)

(* Position of [d] in [dims], [-1] when absent. *)
let rec find_from dims d i =
  if i >= Array.length dims then -1
  else if String.equal (fst dims.(i)) d then i
  else find_from dims d (i + 1)

let find_index dims d = find_from dims d 0

let dim_bits dims d = match find_index dims d with -1 -> 0 | i -> snd dims.(i)

let offset_of dims i =
  let acc = ref 0 in
  for j = 0 to i - 1 do
    acc := !acc + snd dims.(j)
  done;
  !acc

(* [offset_of] for every dimension at once. *)
let offsets dims = Array.init (Array.length dims) (offset_of dims)
let total_bits dims = Array.fold_left (fun acc (_, b) -> acc + b) 0 dims

(* The flat value of [(label, coordinate)] pairs over [dims]: absent
   labels are 0, and a label given twice XORs its coordinates. *)
let flat_of_assoc what dims assoc =
  List.fold_left
    (fun acc (d, v) ->
      match find_index dims d with
      | -1 ->
          if v <> 0 then error "%s: unknown dimension %s" what d;
          acc
      | o ->
          let bits = snd dims.(o) in
          if v lsr bits <> 0 then
            error "%s: coordinate %d out of range for %s (%d bits)" what v d bits;
          acc lxor (v lsl offset_of dims o))
    0 assoc

(* The [(label, coordinate)] pair of every dimension of [dims] in the
   flat value [v]. *)
let assoc_of_flat dims v =
  let rec go o pos =
    if o = Array.length dims then []
    else
      let d, bits = dims.(o) in
      (d, F2.Bitvec.extract v ~pos ~len:bits) :: go (o + 1) (pos + bits)
  in
  go 0 0

let column l j = F2.Bitmatrix.column l.m j

(* The columns of input dimension [i], which starts at bit [off]. *)
let dim_columns l i ~off = Array.init (snd l.ins.(i)) (fun k -> column l (off + k))
let with_columns l ~ins cols = mk ins l.outs (F2.Bitmatrix.make ~rows:(total_bits l.outs) cols)

(* ORs each [(pos, len, dst_pos)] field of [c], moved to [dst_pos],
   into [acc]. *)
let rec move_all c acc = function
  | [] -> acc
  | (pos, len, dst_pos) :: rest ->
      move_all c (acc lor (F2.Bitvec.extract c ~pos ~len lsl dst_pos)) rest

(* The column map that carries each output field of [src] to the field
   [target d] of [dst], [shift d] bits above that field's start; fields
   whose target is absent from [dst] are dropped.  [None] when every
   field stays where it is. *)
let move_fields ?(target = Fun.id) ?(shift = fun _ -> 0) src dst =
  let moved = ref false in
  let rec moves o pos =
    if o = Array.length src then []
    else
      let d, len = src.(o) in
      let rest = moves (o + 1) (pos + len) in
      match find_index dst (target d) with
      | _ when len = 0 -> rest
      | -1 ->
          moved := true;
          rest
      | o' ->
          let dst_pos = offset_of dst o' + shift d in
          if dst_pos <> pos then moved := true;
          (pos, len, dst_pos) :: rest
  in
  let moves = moves 0 0 in
  if !moved then Some (fun c -> move_all c 0 moves) else None

(* [l] with its outputs relabelled as [outs], every column moved by
   [move] (see {!move_fields}). *)
let relabel_outs l outs move =
  match move with
  | None -> mk l.ins outs l.m
  | Some f ->
      let cols = Array.init (F2.Bitmatrix.cols l.m) (fun j -> f (column l j)) in
      mk l.ins outs (F2.Bitmatrix.make ~rows:(total_bits outs) cols)

(* {1 Observation} *)

let in_dims l = Array.to_list l.ins
let out_dims l = Array.to_list l.outs
let logical_space l = List.filter (fun (_, bits) -> bits > 0) (out_dims l)
let has_in_dim l d = find_index l.ins d >= 0
let has_out_dim l d = find_index l.outs d >= 0
let in_bits l d = dim_bits l.ins d
let out_bits l d = dim_bits l.outs d
let total_in_bits l = total_bits l.ins
let total_out_bits l = total_bits l.outs
let in_size l d = 1 lsl in_bits l d
let out_size l d = 1 lsl out_bits l d

let out_mask l d =
  match find_index l.outs d with
  | -1 -> 0
  | o -> ((1 lsl snd l.outs.(o)) - 1) lsl offset_of l.outs o

let basis_flat l d k =
  match find_index l.ins d with
  | -1 -> error "basis: no input dimension %s" d
  | i ->
      if k < 0 || k >= snd l.ins.(i) then error "basis: index %d out of range for %s" k d;
      column l (offset_of l.ins i + k)

let basis l d k = List.filter (fun (_, c) -> c <> 0) (assoc_of_flat l.outs (basis_flat l d k))

let flat_columns l d =
  match find_index l.ins d with
  | -1 -> []
  | i ->
      let off = offset_of l.ins i in
      List.init (snd l.ins.(i)) (fun k -> column l (off + k))

let apply l point =
  let out = ref 0 in
  List.iter
    (fun (d, v) ->
      match find_index l.ins d with
      | -1 -> if v <> 0 then error "apply: unknown input dimension %s" d
      | i ->
          let bits = snd l.ins.(i) and off = offset_of l.ins i in
          if v lsr bits <> 0 then error "apply: index %d out of range for %s (%d bits)" v d bits;
          for k = 0 to bits - 1 do
            if F2.Bitvec.bit v k then out := !out lxor column l (off + k)
          done)
    point;
  assoc_of_flat l.outs !out

let to_matrix l = l.m
let apply_flat l = F2.Bitmatrix.apply l.m

let flatten_value dims point =
  check_dims "flatten_value" dims;
  let dims = Array.of_list (Dims.sort dims) in
  flat_of_assoc "flatten_value" dims point

let unflatten_value dims v =
  check_dims "unflatten_value" dims;
  let dims = Array.of_list (Dims.sort dims) in
  assoc_of_flat dims v

(* {1 Construction} *)

let empty = mk [||] [||] (F2.Bitmatrix.zero ~rows:0 ~cols:0)

let make ~ins ~outs ~bases =
  check_dims "input" ins;
  check_dims "output" outs;
  let ins = Array.of_list (Dims.sort ins) and outs = Array.of_list (Dims.sort outs) in
  let cols = Array.make (total_bits ins) 0 and j = ref 0 in
  Array.iter
    (fun (d, bits) ->
      let images = try List.assoc d bases with Not_found -> [] in
      if List.length images <> bits then
        error "make: dimension %s needs %d basis images, got %d" d bits (List.length images);
      List.iter
        (fun img ->
          cols.(!j) <- flat_of_assoc "make" outs img;
          incr j)
        images)
    ins;
  List.iter
    (fun (d, _) ->
      if find_index ins d < 0 then error "make: bases given for unknown input dimension %s" d)
    bases;
  mk ins outs (F2.Bitmatrix.make ~rows:(total_bits outs) cols)

let identity1d bits ~in_dim ~out_dim =
  make ~ins:[ (in_dim, bits) ] ~outs:[ (out_dim, bits) ]
    ~bases:[ (in_dim, List.init bits (fun k -> [ (out_dim, 1 lsl k) ])) ]

let zeros1d bits ~in_dim ~out_dim =
  make ~ins:[ (in_dim, bits) ] ~outs:[ (out_dim, 0) ]
    ~bases:[ (in_dim, List.init bits (fun _ -> [])) ]

let of_matrix ~ins ~outs m =
  check_dims "input" ins;
  check_dims "output" outs;
  let ins = Array.of_list (Dims.sort ins) and outs = Array.of_list (Dims.sort outs) in
  if F2.Bitmatrix.cols m <> total_bits ins then error "of_matrix: column count mismatch";
  if F2.Bitmatrix.rows m <> total_bits outs then error "of_matrix: row count mismatch";
  mk ins outs m

(* {1 Algebra} *)

(* Union of two canonically sorted dimension arrays, bits added on
   shared names: one linear merge. *)
let merge_dims a b =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else
    let out = Array.make (na + nb) a.(0) in
    let rec go i j k =
      if i = na then begin
        Array.blit b j out k (nb - j);
        k + nb - j
      end
      else if j = nb then begin
        Array.blit a i out k (na - i);
        k + na - i
      end
      else
        let da, ba = a.(i) and db, bb = b.(j) in
        let c = Dims.compare da db in
        if c < 0 then begin
          out.(k) <- a.(i);
          go (i + 1) j (k + 1)
        end
        else if c > 0 then begin
          out.(k) <- b.(j);
          go i (j + 1) (k + 1)
        end
        else begin
          out.(k) <- (da, ba + bb);
          go (i + 1) (j + 1) (k + 1)
        end
    in
    let k = go 0 0 0 in
    if k = na + nb then out else Array.sub out 0 k

let is_empty l = Array.length l.ins = 0 && Array.length l.outs = 0

let mul a b =
  if is_empty a then b
  else if is_empty b then a
  else
    let ins = merge_dims a.ins b.ins and outs = merge_dims a.outs b.outs in
    (* Within each shared dimension, a's columns and output bits come
       first and b's follow above them. *)
    let lift l ~shift = Option.value ~default:Fun.id (move_fields ~shift l.outs outs) in
    let lift_a = lift a ~shift:(fun _ -> 0) and lift_b = lift b ~shift:(dim_bits a.outs) in
    let cols = Array.make (total_bits ins) 0 and j = ref 0 in
    let take l lift d =
      match find_index l.ins d with
      | -1 -> ()
      | i ->
          let off = offset_of l.ins i in
          for k = 0 to snd l.ins.(i) - 1 do
            cols.(!j) <- lift (column l (off + k));
            incr j
          done
    in
    Array.iter
      (fun (d, _) ->
        take a lift_a d;
        take b lift_b d)
      ins;
    mk ins outs (F2.Bitmatrix.make ~rows:(total_bits outs) cols)

let compose l2 l1 =
  Array.iter
    (fun (d, bits) ->
      if dim_bits l2.ins d < bits then
        error "compose: output dimension %s of the inner layout (%d bits) exceeds the \
               corresponding input of the outer layout (%d bits)"
          d bits (dim_bits l2.ins d))
    l1.outs;
  let lift = Option.value ~default:Fun.id (move_fields l1.outs l2.ins) in
  let cols = Array.init (F2.Bitmatrix.cols l1.m) (fun j -> apply_flat l2 (lift (column l1 j))) in
  mk l1.ins l2.outs (F2.Bitmatrix.make ~rows:(total_bits l2.outs) cols)

let is_surjective l = F2.Bitmatrix.is_surjective l.m
let is_injective l = F2.Bitmatrix.is_injective l.m
let is_invertible l = F2.Bitmatrix.is_invertible l.m

(* Both inversions factor once and reuse that factorization for the
   feasibility check and the inverse itself. *)
let invert l =
  let ech = F2.Bitmatrix.factorize l.m in
  if not (F2.Bitmatrix.is_invertible_with ech) then error "invert: layout is not invertible";
  of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.inverse_with ech)

let pseudo_invert l =
  let ech = F2.Bitmatrix.factorize l.m in
  if not (F2.Bitmatrix.is_surjective_with ech) then
    error "pseudo_invert: layout is not surjective";
  of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.right_inverse_with ech)

let divide_left l t =
  let exception No in
  try
    Array.iter (fun (d, bits) -> if in_bits l d < bits then raise No) t.ins;
    Array.iter (fun (d, bits) -> if out_bits l d < bits then raise No) t.outs;
    (* Check the block structure label-wise: the tile's columns, moved
       onto [l]'s output fields, must match, and every other column
       must clear the tile's low bits of each field. *)
    let out_off = offsets l.outs and tile_bits d = dim_bits t.outs d in
    let tile_mask =
      Array.fold_left ( lor ) 0
        (Array.mapi (fun o (d, _) -> ((1 lsl tile_bits d) - 1) lsl out_off.(o)) l.outs)
    in
    let lift = Option.value ~default:Fun.id (move_fields t.outs l.outs) in
    Array.iteri
      (fun i (d, bits) ->
        let off = offset_of l.ins i and t_i = find_index t.ins d in
        for k = 0 to bits - 1 do
          let c = column l (off + k) in
          if k < dim_bits t.ins d then begin
            if c <> lift (column t (offset_of t.ins t_i + k)) then raise No
          end
          else if c land tile_mask <> 0 then raise No
        done)
      l.ins;
    (* Quotient: strip the tile's bits from inputs and outputs. *)
    let q_outs = Array.map (fun (d, bits) -> (d, bits - tile_bits d)) l.outs in
    let q_off = offsets q_outs in
    let strip c =
      Array.fold_left ( lor ) 0
        (Array.mapi
           (fun o (d, len) ->
             F2.Bitvec.extract c ~pos:(out_off.(o) + tile_bits d) ~len lsl q_off.(o))
           q_outs)
    in
    let q_ins =
      Array.to_list l.ins
      |> List.map (fun (d, bits) -> (d, bits - dim_bits t.ins d))
      |> List.filter (fun (_, bits) -> bits > 0)
    in
    let q_cols =
      Array.to_list l.ins
      |> List.mapi (fun i (d, bits) ->
             let skip = dim_bits t.ins d and off = offset_of l.ins i in
             Array.init (bits - skip) (fun k -> strip (column l (off + skip + k))))
    in
    Some
      (mk (Array.of_list q_ins) q_outs
         (F2.Bitmatrix.make ~rows:(total_bits q_outs) (Array.concat q_cols)))
  with No -> None

(* {1 Dimension surgery} *)

let select_ins l keep =
  let off = offsets l.ins in
  let kept =
    List.filter (fun i -> List.mem (fst l.ins.(i)) keep) (List.init (Array.length l.ins) Fun.id)
  in
  with_columns l
    ~ins:(Array.of_list (List.map (fun i -> l.ins.(i)) kept))
    (Array.concat (List.map (fun i -> dim_columns l i ~off:off.(i)) kept))

let project_outs l keep =
  let outs = Array.of_list (List.filter (fun (d, _) -> List.mem d keep) (out_dims l)) in
  relabel_outs l outs (move_fields l.outs outs)

let remove_out_dim l d =
  project_outs l (List.filter (fun x -> x <> d) (List.map fst (out_dims l)))

(* Relabel every output dimension [d] as [target d] at once. *)
let rename_outs l target =
  let renamed = List.map (fun (d, bits) -> (target d, bits)) (out_dims l) in
  check_dims "output" renamed;
  let outs = Array.of_list (Dims.sort renamed) in
  relabel_outs l outs (move_fields ~target l.outs outs)

let exchange_out_names l spec =
  rename_outs l (fun d -> match List.assoc_opt d spec with Some d' -> d' | None -> d)

let flatten_outs ?(name = Dims.flat) l = mk l.ins [| (name, total_bits l.outs) |] l.m
let flatten_ins ?(name = Dims.flat) l = mk [| (name, total_bits l.ins) |] l.outs l.m

let reshape_outs l outs =
  check_dims "reshape_outs" outs;
  if total_bits (Array.of_list outs) <> total_bits l.outs then
    error "reshape_outs: total bits mismatch";
  mk l.ins (Array.of_list (Dims.sort outs)) l.m

let resize_in l d bits =
  match find_index l.ins d with
  | -1 ->
      if bits = 0 then l
      else
        let zero = make ~ins:[ (d, bits) ] ~outs:[] ~bases:[ (d, List.init bits (fun _ -> [])) ] in
        mul l zero
  | i ->
      let cur = snd l.ins.(i) and off = offset_of l.ins i in
      let ins = Array.copy l.ins in
      ins.(i) <- (d, bits);
      (* Keep the first [min cur bits] columns of [d], pad with zero
         columns up to [bits], then the later dimensions. *)
      with_columns l ~ins
        (Array.init
           (F2.Bitmatrix.cols l.m - cur + bits)
           (fun j ->
             if j < off + min cur bits then column l j
             else if j < off + bits then 0
             else column l (j - bits + cur)))

let drop_trivial_dims l =
  let l =
    select_ins l
      (Array.to_list l.ins |> List.filter (fun (_, b) -> b > 0) |> List.map fst)
  in
  project_outs l
    (Array.to_list l.outs |> List.filter (fun (_, b) -> b > 0) |> List.map fst)

(* {1 Predicates and analyses} *)

let equal a b =
  a == b || (a.h = b.h && a.ins = b.ins && a.outs = b.outs && F2.Bitmatrix.equal a.m b.m)
let equivalent a b = equal (drop_trivial_dims a) (drop_trivial_dims b)
let is_distributed l = is_surjective l && F2.Bitmatrix.is_permutation l.m

let is_memory l =
  is_invertible l
  && Array.for_all (fun c -> c <> 0 && F2.Bitvec.popcount c <= 2) (F2.Bitmatrix.columns l.m)

let kernel l = F2.Bitmatrix.kernel l.m

(* A column is free when it depends on the columns before it: exactly
   the columns that do not become pivots of the elimination. *)
let free_variable_masks l =
  let free = lnot (F2.Bitmatrix.pivot_columns (F2.Bitmatrix.factorize l.m)) in
  let off = offsets l.ins in
  Array.to_list l.ins
  |> List.mapi (fun i (d, bits) -> (d, (free lsr off.(i)) land ((1 lsl bits) - 1)))

let num_consecutive l ~in_dim =
  match find_index l.ins in_dim with
  | -1 -> 1
  | i ->
      let off = offset_of l.ins i and bits = snd l.ins.(i) in
      let k = ref 0 in
      while !k < bits && column l (off + !k) = 1 lsl !k do
        incr k
      done;
      1 lsl !k

(* {1 Memoization} *)

(* Layouts are immutable, so every operation on them is a pure function
   of its arguments: memo tables never need invalidation.  Tables are
   domain-local (via [Domain.DLS]) so OCaml 5 domains — e.g. the
   parallel autotuner — each own a private cache and never contend. *)
module Memo = struct
  (* The hash stored at construction: O(1). *)
  let hash l = l.h

  module H1 = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  module H2 = Hashtbl.Make (struct
    type nonrec t = t * t

    let equal (a1, b1) (a2, b2) = equal a1 a2 && equal b1 b2
    let hash (a, b) = (hash a * 0x01000193) lxor hash b
  end)

  (* Keys of {!derive}: a tag, the sources and integer arguments. *)
  module HD = Hashtbl.Make (struct
    type nonrec t = string * t list * int array

    let equal (o1, s1, a1) (o2, s2, a2) =
      String.equal o1 o2 && List.equal equal s1 s2 && a1 = a2

    let hash (o, srcs, args) =
      Array.fold_left fnv (List.fold_left (fun h l -> fnv h l.h) (Hashtbl.hash o) srcs) args
      land max_int
  end)

  type stats = { mutable hits : int; mutable misses : int }

  type tables = {
    stats : stats;
    interned : t H1.t;
    compose_t : t H2.t;
    invert_t : t H1.t;
    free_masks_t : (string * int) list H1.t;
    echelon_t : F2.Bitmatrix.echelon H1.t;
    derived_t : t HD.t;
  }

  let fresh () =
    {
      stats = { hits = 0; misses = 0 };
      interned = H1.create 256;
      compose_t = H2.create 256;
      invert_t = H1.create 64;
      free_masks_t = H1.create 64;
      echelon_t = H1.create 128;
      derived_t = HD.create 256;
    }

  let key = Domain.DLS.new_key fresh
  let tables () = Domain.DLS.get key
  let hits () = (tables ()).stats.hits
  let misses () = (tables ()).stats.misses

  let reset_stats () =
    let s = (tables ()).stats in
    s.hits <- 0;
    s.misses <- 0

  (* Tables made by [table] (below) for constructors defined outside
     this module: one reset per table, each emptying the calling
     domain's instance, run by [clear]. *)
  let table_resets : (unit -> unit) list Atomic.t = Atomic.make []

  let clear () =
    let tb = tables () in
    H1.reset tb.interned;
    H2.reset tb.compose_t;
    H1.reset tb.invert_t;
    H1.reset tb.free_masks_t;
    H1.reset tb.echelon_t;
    HD.reset tb.derived_t;
    List.iter (fun reset -> reset ()) (Atomic.get table_resets)

  (* Canonical representative without touching the counters — used to
     hash-cons the results stored in the memo tables. *)
  let intern_quiet tb l =
    match H1.find_opt tb.interned l with
    | Some c -> c
    | None ->
        H1.add tb.interned l l;
        l

  let intern l =
    let tb = tables () in
    match H1.find_opt tb.interned l with
    | Some c ->
        tb.stats.hits <- tb.stats.hits + 1;
        c
    | None ->
        tb.stats.misses <- tb.stats.misses + 1;
        H1.add tb.interned l l;
        l

  let hit tb = tb.stats.hits <- tb.stats.hits + 1
  let miss tb = tb.stats.misses <- tb.stats.misses + 1

  (* Memo a layout-valued operation (the result is hash-consed through
     the intern table so chained lookups share representatives). *)
  let memo_layout find add tbl k compute =
    let tb = tables () in
    match find (tbl tb) k with
    | Some r ->
        hit tb;
        r
    | None ->
        let r = intern_quiet tb (compute ()) in
        miss tb;
        add (tbl tb) k r;
        r

  (* Memo a plain-valued operation. *)
  let memo_value find add tbl k compute =
    let tb = tables () in
    match find (tbl tb) k with
    | Some r ->
        hit tb;
        r
    | None ->
        let r = compute () in
        miss tb;
        add (tbl tb) k r;
        r

  (* The lookup key holds the caller's sources; a stored key holds
     their interned representatives, so a warm probe with interned
     sources compares by [==]. *)
  let derive op srcs args compute =
    let tb = tables () in
    match HD.find_opt tb.derived_t (op, srcs, args) with
    | Some r ->
        hit tb;
        r
    | None ->
        let r = intern_quiet tb (compute ()) in
        miss tb;
        HD.add tb.derived_t (op, List.map (intern_quiet tb) srcs, args) r;
        r

  type ('k, 'v) table = ('k, 'v) Hashtbl.t Domain.DLS.key

  let table () =
    let key = Domain.DLS.new_key (fun () -> Hashtbl.create 64) in
    let reset () = Hashtbl.reset (Domain.DLS.get key) in
    let rec register () =
      let old = Atomic.get table_resets in
      if not (Atomic.compare_and_set table_resets old (reset :: old)) then register ()
    in
    register ();
    key

  let find_or_add key k compute =
    memo_value Hashtbl.find_opt Hashtbl.add (fun _ -> Domain.DLS.get key) k compute

  let compose l2 l1 =
    memo_layout H2.find_opt H2.add (fun tb -> tb.compose_t) (l2, l1) (fun () -> compose l2 l1)

  (* The memoized factorization: one elimination per distinct layout,
     shared by [invert] and [is_invertible].  A
     planner cache miss that checks invertibility and then inverts pays
     one elimination total, not one per question. *)
  let echelon l =
    memo_value H1.find_opt H1.add (fun tb -> tb.echelon_t) l (fun () -> F2.Bitmatrix.factorize l.m)

  let is_invertible l = F2.Bitmatrix.is_invertible_with (echelon l)

  let invert l =
    memo_layout H1.find_opt H1.add
      (fun tb -> tb.invert_t)
      l
      (fun () ->
        let ech = echelon l in
        if not (F2.Bitmatrix.is_invertible_with ech) then
          error "invert: layout is not invertible";
        of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.inverse_with ech))

  let free_variable_masks l =
    memo_value H1.find_opt H1.add
      (fun tb -> tb.free_masks_t)
      l
      (fun () -> free_variable_masks l)
end

(* {1 Printing} *)

let pp ppf l =
  let pp_image ppf assoc =
    let assoc = List.sort (fun (a, _) (b, _) -> String.compare a b) assoc in
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (d, c) -> Format.fprintf ppf "%s:%d" d c))
      assoc
  in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i (d, bits) ->
      Format.fprintf ppf "%s[%d] -> [%a]" d (1 lsl bits)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           pp_image)
        (List.init bits (fun k -> assoc_of_flat l.outs (basis_flat l d k)));
      if i < Array.length l.ins - 1 then Format.fprintf ppf "@,")
    l.ins;
  Format.fprintf ppf "@,outs: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " x ")
       (fun ppf (d, bits) -> Format.fprintf ppf "%s[%d]" d (1 lsl bits)))
    (out_dims l)

let to_string l = Format.asprintf "%a" pp l
