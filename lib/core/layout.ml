exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Invariants:
   - [ins] and [outs] are sorted by [Dims.compare] and duplicate-free;
   - [bases.(i)] has [snd ins.(i)] entries, each an array indexed like
     [outs], with entry [o] < [2 ^ snd outs.(o)];
   - the first dimension in canonical order occupies the low bits of
     flattened values. *)
type t = {
  ins : (string * int) array;
  outs : (string * int) array;
  bases : int array array array;
}

(* {1 Internal helpers} *)

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
let find_index dims d =
  let n = Array.length dims in
  let rec go i = if i >= n then -1 else if String.equal (fst dims.(i)) d then i else go (i + 1) in
  go 0

let find_dim dims d = match find_index dims d with -1 -> None | i -> Some i
let dim_bits dims d = match find_index dims d with -1 -> 0 | i -> snd dims.(i)

let offset_of dims i =
  let acc = ref 0 in
  for j = 0 to i - 1 do
    acc := !acc + snd dims.(j)
  done;
  !acc

let total_bits dims = Array.fold_left (fun acc (_, b) -> acc + b) 0 dims

let flatten dims coords =
  (* [coords] indexed like [dims]. *)
  let acc = ref 0 and pos = ref 0 in
  Array.iteri
    (fun o (_, bits) ->
      acc := !acc lor (coords.(o) lsl !pos);
      pos := !pos + bits)
    dims;
  !acc

let unflatten dims v =
  let pos = ref 0 in
  Array.map
    (fun (_, bits) ->
      let c = F2.Bitvec.extract v ~pos:!pos ~len:bits in
      pos := !pos + bits;
      c)
    dims

let assoc_to_coords what dims assoc =
  let coords = Array.make (Array.length dims) 0 in
  List.iter
    (fun (d, v) ->
      match find_dim dims d with
      | Some o ->
          if v lsr snd dims.(o) <> 0 then
            error "%s: coordinate %d out of range for %s (%d bits)" what v d (snd dims.(o));
          coords.(o) <- coords.(o) lxor v
      | None -> if v <> 0 then error "%s: unknown dimension %s" what d)
    assoc;
  coords

let coords_to_assoc dims coords =
  Array.to_list dims |> List.mapi (fun o (d, _) -> (d, coords.(o)))

(* {1 Observation} *)

let in_dims l = Array.to_list l.ins
let out_dims l = Array.to_list l.outs
let has_in_dim l d = find_index l.ins d >= 0
let has_out_dim l d = find_index l.outs d >= 0
let in_bits l d = dim_bits l.ins d
let out_bits l d = dim_bits l.outs d
let total_in_bits l = total_bits l.ins
let total_out_bits l = total_bits l.outs
let in_size l d = 1 lsl in_bits l d
let out_size l d = 1 lsl out_bits l d

let basis_coords l d k =
  match find_dim l.ins d with
  | None -> error "basis: no input dimension %s" d
  | Some i ->
      if k < 0 || k >= snd l.ins.(i) then error "basis: index %d out of range for %s" k d;
      l.bases.(i).(k)

let basis l d k =
  coords_to_assoc l.outs (basis_coords l d k) |> List.filter (fun (_, c) -> c <> 0)

let basis_flat l d k = flatten l.outs (basis_coords l d k)

let flat_columns l d =
  match find_dim l.ins d with
  | None -> []
  | Some i -> Array.to_list l.bases.(i) |> List.map (flatten l.outs)

let apply l point =
  let out = Array.make (Array.length l.outs) 0 in
  List.iter
    (fun (d, v) ->
      match find_dim l.ins d with
      | Some i ->
          if v lsr snd l.ins.(i) <> 0 then
            error "apply: index %d out of range for %s (%d bits)" v d (snd l.ins.(i));
          for k = 0 to snd l.ins.(i) - 1 do
            if F2.Bitvec.bit v k then
              Array.iteri (fun o c -> out.(o) <- out.(o) lxor c) l.bases.(i).(k)
          done
      | None -> if v <> 0 then error "apply: unknown input dimension %s" d)
    point;
  coords_to_assoc l.outs out

let to_matrix l =
  F2.Bitmatrix.make ~rows:(total_bits l.outs)
    (Array.concat (Array.to_list (Array.map (Array.map (flatten l.outs)) l.bases)))

(* The matrix is built when [apply_flat l] is partially applied, so a
   caller hoisting [apply_flat l] out of a loop pays for it once. *)
let apply_flat l =
  let m = to_matrix l in
  fun v -> F2.Bitmatrix.apply m v

let flatten_value dims point =
  check_dims "flatten_value" dims;
  let dims = Array.of_list (Dims.sort dims) in
  flatten dims (assoc_to_coords "flatten_value" dims point)

let unflatten_value dims v =
  check_dims "unflatten_value" dims;
  let dims = Array.of_list (Dims.sort dims) in
  coords_to_assoc dims (unflatten dims v)

(* {1 Construction} *)

let empty = { ins = [||]; outs = [||]; bases = [||] }

let make ~ins ~outs ~bases =
  check_dims "input" ins;
  check_dims "output" outs;
  let ins = Array.of_list (Dims.sort ins) and outs = Array.of_list (Dims.sort outs) in
  let base_table =
    Array.map
      (fun (d, bits) ->
        let images = try List.assoc d bases with Not_found -> [] in
        if List.length images <> bits then
          error "make: dimension %s needs %d basis images, got %d" d bits (List.length images);
        Array.of_list (List.map (assoc_to_coords "make" outs) images))
      ins
  in
  List.iter
    (fun (d, _) ->
      if find_dim ins d = None then error "make: bases given for unknown input dimension %s" d)
    bases;
  { ins; outs; bases = base_table }

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
  let bases =
    Array.mapi
      (fun i (_, bits) ->
        let off = offset_of ins i in
        Array.init bits (fun k -> unflatten outs (F2.Bitmatrix.column m (off + k))))
      ins
  in
  { ins; outs; bases }

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
    (* Re-index an operand's images onto [outs]; b's coordinates shift
       above a's bits within each shared output dimension.  The index
       and shift tables are built once per operand. *)
    let lift_image src_outs ~shift =
      let src = Array.map (fun (d, _) -> find_index src_outs d) outs in
      let sh = Array.map (fun (d, _) -> if shift then dim_bits a.outs d else 0) outs in
      fun coords ->
        Array.init (Array.length outs) (fun o ->
            if src.(o) < 0 then 0 else coords.(src.(o)) lsl sh.(o))
    in
    let lift_a = lift_image a.outs ~shift:false and lift_b = lift_image b.outs ~shift:true in
    let bases =
      Array.map
        (fun (d, _) ->
          let from_a =
            match find_index a.ins d with -1 -> [||] | i -> Array.map lift_a a.bases.(i)
          in
          let from_b =
            match find_index b.ins d with -1 -> [||] | i -> Array.map lift_b b.bases.(i)
          in
          Array.append from_a from_b)
        ins
    in
    { ins; outs; bases }

let compose l2 l1 =
  Array.iter
    (fun (d, bits) ->
      if dim_bits l2.ins d < bits then
        error "compose: output dimension %s of the inner layout (%d bits) exceeds the \
               corresponding input of the outer layout (%d bits)"
          d bits (dim_bits l2.ins d))
    l1.outs;
  let image coords =
    let point = coords_to_assoc l1.outs coords in
    assoc_to_coords "compose" l2.outs (apply l2 point)
  in
  { ins = l1.ins; outs = l2.outs; bases = Array.map (Array.map image) l1.bases }

let is_surjective l = F2.Bitmatrix.is_surjective (to_matrix l)
let is_injective l = F2.Bitmatrix.is_injective (to_matrix l)
let is_invertible l = F2.Bitmatrix.is_invertible (to_matrix l)

(* Both inversions factor once and reuse that factorization for the
   feasibility check and the inverse itself — previously each paid two
   eliminations (predicate + inverse). *)
let invert l =
  let ech = F2.Bitmatrix.factorize (to_matrix l) in
  if not (F2.Bitmatrix.is_invertible_with ech) then error "invert: layout is not invertible";
  of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.inverse_with ech)

let pseudo_invert l =
  let ech = F2.Bitmatrix.factorize (to_matrix l) in
  if not (F2.Bitmatrix.is_surjective_with ech) then
    error "pseudo_invert: layout is not surjective";
  of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.right_inverse_with ech)

let divide_left l t =
  let exception No in
  try
    Array.iter
      (fun (d, bits) -> if in_bits l d < bits then raise No)
      t.ins;
    Array.iter
      (fun (d, bits) -> if out_bits l d < bits then raise No)
      t.outs;
    (* Check the block structure label-wise. *)
    let tile_out_bits d = dim_bits t.outs d in
    let check_column in_dim k =
      (* The basis [k] of [in_dim] in [l], compared against the tile. *)
      let coords = basis_coords l in_dim k in
      let within_tile = k < dim_bits t.ins in_dim in
      Array.iteri
        (fun o (d, _) ->
          let c = coords.(o) in
          let tb = tile_out_bits d in
          if within_tile then begin
            let expected =
              match find_dim t.ins in_dim with
              | Some i -> (
                  match find_dim t.outs d with Some o' -> t.bases.(i).(k).(o') | None -> 0)
              | None -> 0
            in
            if c <> expected then raise No
          end
          else if c land ((1 lsl tb) - 1) <> 0 then raise No)
        l.outs
    in
    Array.iter (fun (d, bits) -> for k = 0 to bits - 1 do check_column d k done) l.ins;
    (* Quotient: strip the tile's bits from inputs and outputs. *)
    let q_ins =
      Array.to_list l.ins
      |> List.map (fun (d, bits) -> (d, bits - dim_bits t.ins d))
      |> List.filter (fun (_, bits) -> bits > 0)
    in
    let q_outs = Array.to_list l.outs |> List.map (fun (d, bits) -> (d, bits - tile_out_bits d)) in
    let q_bases =
      Array.to_list l.ins
      |> List.filter_map (fun (d, bits) ->
             let skip = dim_bits t.ins d in
             if bits - skip <= 0 then None
             else
               Some
                 ( d,
                   List.init (bits - skip) (fun k ->
                       let coords = basis_coords l d (skip + k) in
                       Array.to_list l.outs
                       |> List.map (fun (od, _) ->
                              let o = Option.get (find_dim l.outs od) in
                              (od, coords.(o) lsr tile_out_bits od))) ))
    in
    Some (make ~ins:q_ins ~outs:q_outs ~bases:q_bases)
  with No -> None

(* {1 Dimension surgery} *)

let select_ins l keep =
  let keep_idx =
    Array.to_list l.ins
    |> List.mapi (fun i (d, _) -> (i, d))
    |> List.filter (fun (_, d) -> List.mem d keep)
  in
  {
    l with
    ins = Array.of_list (List.map (fun (i, _) -> l.ins.(i)) keep_idx);
    bases = Array.of_list (List.map (fun (i, _) -> l.bases.(i)) keep_idx);
  }

let remove_in_dim l d =
  select_ins l (List.filter (fun x -> x <> d) (List.map fst (in_dims l)))

let project_outs l keep =
  let keep_idx =
    Array.to_list l.outs
    |> List.mapi (fun o (d, _) -> (o, d))
    |> List.filter (fun (_, d) -> List.mem d keep)
  in
  let outs = Array.of_list (List.map (fun (o, _) -> l.outs.(o)) keep_idx) in
  let project coords = Array.of_list (List.map (fun (o, _) -> coords.(o)) keep_idx) in
  { l with outs; bases = Array.map (Array.map project) l.bases }

let remove_out_dim l d =
  project_outs l (List.filter (fun x -> x <> d) (List.map fst (out_dims l)))

let rename_dims dims ~old_name ~new_name =
  Array.to_list dims
  |> List.map (fun (d, bits) -> ((if d = old_name then new_name else d), bits))

let rename_out l ~old_name ~new_name =
  if not (has_out_dim l old_name) then error "rename_out: no dimension %s" old_name;
  if has_out_dim l new_name then error "rename_out: dimension %s already exists" new_name;
  let outs = rename_dims l.outs ~old_name ~new_name in
  let bases =
    Array.to_list l.ins
    |> List.mapi (fun i (d, _) ->
           (d, Array.to_list l.bases.(i) |> List.map (fun coords ->
                    List.combine (List.map fst outs)
                      (Array.to_list coords))))
  in
  make ~ins:(in_dims l) ~outs ~bases

let rename_in l ~old_name ~new_name =
  if not (has_in_dim l old_name) then error "rename_in: no dimension %s" old_name;
  if has_in_dim l new_name then error "rename_in: dimension %s already exists" new_name;
  let ins = rename_dims l.ins ~old_name ~new_name in
  let bases =
    ins
    |> List.mapi (fun i (d, _) ->
           (d, Array.to_list l.bases.(i) |> List.map (fun coords ->
                    coords_to_assoc l.outs coords)))
  in
  make ~ins ~outs:(out_dims l) ~bases

let exchange_out_names l spec =
  let target d = match List.assoc_opt d spec with Some d' -> d' | None -> d in
  let outs = Array.to_list l.outs |> List.map (fun (d, bits) -> (target d, bits)) in
  let bases =
    Array.to_list l.ins
    |> List.mapi (fun i (d, _) ->
           ( d,
             Array.to_list l.bases.(i)
             |> List.map (fun coords ->
                    Array.to_list l.outs
                    |> List.mapi (fun o (od, _) -> (target od, coords.(o)))) ))
  in
  make ~ins:(in_dims l) ~outs ~bases

let flatten_outs ?(name = Dims.flat) l =
  let outs = [| (name, total_bits l.outs) |] in
  { l with outs; bases = Array.map (Array.map (fun c -> [| flatten l.outs c |])) l.bases }

let flatten_ins ?(name = Dims.flat) l =
  let bases = Array.concat (Array.to_list l.bases) in
  { l with ins = [| (name, total_bits l.ins) |]; bases = [| bases |] }

let reshape_outs l outs =
  check_dims "reshape_outs" outs;
  if total_bits (Array.of_list outs) <> total_bits l.outs then
    error "reshape_outs: total bits mismatch";
  of_matrix ~ins:(in_dims l) ~outs (to_matrix l)

let reshape_ins l ins =
  check_dims "reshape_ins" ins;
  if total_bits (Array.of_list ins) <> total_bits l.ins then error "reshape_ins: total bits mismatch";
  of_matrix ~ins ~outs:(out_dims l) (to_matrix l)

let resize_in l d bits =
  match find_dim l.ins d with
  | None ->
      if bits = 0 then l
      else
        let zero = make ~ins:[ (d, bits) ] ~outs:[] ~bases:[ (d, List.init bits (fun _ -> [])) ] in
        mul l zero
  | Some i ->
      let cur = snd l.ins.(i) in
      let ins = Array.copy l.ins and bases = Array.copy l.bases in
      ins.(i) <- (d, bits);
      bases.(i) <-
        (if bits <= cur then Array.sub l.bases.(i) 0 bits
         else
           Array.append l.bases.(i)
             (Array.init (bits - cur) (fun _ -> Array.make (Array.length l.outs) 0)));
      { l with ins; bases }

let drop_trivial_dims l =
  let l =
    select_ins l
      (Array.to_list l.ins |> List.filter (fun (_, b) -> b > 0) |> List.map fst)
  in
  project_outs l
    (Array.to_list l.outs |> List.filter (fun (_, b) -> b > 0) |> List.map fst)

(* {1 Predicates and analyses} *)

let equal a b = a == b || a.ins = b.ins && a.outs = b.outs && a.bases = b.bases
let equivalent a b = equal (drop_trivial_dims a) (drop_trivial_dims b)
let is_distributed l = is_surjective l && F2.Bitmatrix.is_permutation (to_matrix l)

let is_memory l =
  is_invertible l
  && Array.for_all
       (fun c -> c <> 0 && F2.Bitvec.popcount c <= 2)
       (F2.Bitmatrix.columns (to_matrix l))

let is_trivial_on l dims =
  List.for_all (fun d -> List.for_all (fun c -> c = 0) (flat_columns l d)) dims

let kernel l = F2.Bitmatrix.kernel (to_matrix l)

let free_variable_masks l =
  let pivots = ref [] in
  Array.to_list l.ins
  |> List.mapi (fun i (d, bits) ->
         let mask = ref 0 in
         for k = 0 to bits - 1 do
           let v = flatten l.outs l.bases.(i).(k) in
           if F2.Subspace.independent_from !pivots v then pivots := v :: !pivots
           else mask := !mask lor (1 lsl k)
         done;
         (d, !mask))

let num_consecutive l ~in_dim =
  let rec go k = function
    | c :: rest when c = 1 lsl k -> go (k + 1) rest
    | _ -> 1 lsl k
  in
  go 0 (flat_columns l in_dim)

(* {1 Memoization} *)

(* Layouts are immutable, so every operation on them is a pure function
   of its arguments: memo tables never need invalidation.  Tables are
   domain-local (via [Domain.DLS]) so OCaml 5 domains — e.g. the
   parallel autotuner — each own a private cache and never contend. *)
module Memo = struct
  (* A cheap structural hash: FNV-style fold over the dimension lists
     and basis coordinates.  Polymorphic [Hashtbl.hash] stops after a
     bounded number of nodes, which collides badly on layouts differing
     only deep in [bases]; this visits every coordinate (layouts are
     small: tens of ints). *)
  let hash l =
    let h = ref 0x811c9dc5 in
    let mix x = h := (!h lxor x) * 0x01000193 land max_int in
    Array.iter
      (fun (d, b) ->
        mix (Hashtbl.hash (d : string));
        mix b)
      l.ins;
    Array.iter
      (fun (d, b) ->
        mix (Hashtbl.hash (d : string));
        mix b)
      l.outs;
    Array.iter (Array.iter (Array.iter mix)) l.bases;
    !h

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

  module HS = Hashtbl.Make (struct
    type nonrec t = t * string

    let equal (a1, s1) (a2, s2) = String.equal s1 s2 && equal a1 a2
    let hash (a, s) = hash a lxor Hashtbl.hash s
  end)

  type stats = { mutable hits : int; mutable misses : int }

  type tables = {
    stats : stats;
    interned : t H1.t;
    compose_t : t H2.t;
    invert_t : t H1.t;
    pseudo_invert_t : t H1.t;
    flatten_outs_t : t HS.t;
    flat_columns_t : int list HS.t;
    num_consecutive_t : int HS.t;
    free_masks_t : (string * int) list H1.t;
    matrix_t : F2.Bitmatrix.t H1.t;
    echelon_t : F2.Bitmatrix.echelon H1.t;
  }

  let fresh () =
    {
      stats = { hits = 0; misses = 0 };
      interned = H1.create 256;
      compose_t = H2.create 256;
      invert_t = H1.create 64;
      pseudo_invert_t = H1.create 64;
      flatten_outs_t = HS.create 256;
      flat_columns_t = HS.create 256;
      num_consecutive_t = HS.create 64;
      free_masks_t = H1.create 64;
      matrix_t = H1.create 256;
      echelon_t = H1.create 128;
    }

  let key = Domain.DLS.new_key fresh
  let tables () = Domain.DLS.get key
  let hits () = (tables ()).stats.hits
  let misses () = (tables ()).stats.misses

  let reset_stats () =
    let s = (tables ()).stats in
    s.hits <- 0;
    s.misses <- 0

  let clear () =
    let tb = tables () in
    H1.reset tb.interned;
    H2.reset tb.compose_t;
    H1.reset tb.invert_t;
    H1.reset tb.pseudo_invert_t;
    HS.reset tb.flatten_outs_t;
    HS.reset tb.flat_columns_t;
    HS.reset tb.num_consecutive_t;
    H1.reset tb.free_masks_t;
    H1.reset tb.matrix_t;
    H1.reset tb.echelon_t

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

  let compose l2 l1 =
    memo_layout H2.find_opt H2.add (fun tb -> tb.compose_t) (l2, l1) (fun () -> compose l2 l1)

  let to_matrix_fwd = to_matrix

  let rec to_matrix l =
    memo_value H1.find_opt H1.add (fun tb -> tb.matrix_t) l (fun () -> to_matrix_fwd l)

  (* The memoized factorization: one elimination per distinct layout,
     shared by [invert], [pseudo_invert] and the predicates below.  A
     planner cache miss that checks invertibility and then inverts pays
     one elimination total, not one per question. *)
  and echelon l =
    memo_value H1.find_opt H1.add
      (fun tb -> tb.echelon_t)
      l
      (fun () -> F2.Bitmatrix.factorize (to_matrix l))

  let is_surjective l = F2.Bitmatrix.is_surjective_with (echelon l)
  let is_injective l = F2.Bitmatrix.is_injective_with (echelon l)
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

  let pseudo_invert l =
    memo_layout H1.find_opt H1.add
      (fun tb -> tb.pseudo_invert_t)
      l
      (fun () ->
        let ech = echelon l in
        if not (F2.Bitmatrix.is_surjective_with ech) then
          error "pseudo_invert: layout is not surjective";
        of_matrix ~ins:(out_dims l) ~outs:(in_dims l) (F2.Bitmatrix.right_inverse_with ech))

  let flatten_outs ?(name = Dims.flat) l =
    memo_layout HS.find_opt HS.add
      (fun tb -> tb.flatten_outs_t)
      (l, name)
      (fun () -> flatten_outs ~name l)

  let flat_columns l d =
    memo_value HS.find_opt HS.add (fun tb -> tb.flat_columns_t) (l, d) (fun () -> flat_columns l d)

  let num_consecutive l ~in_dim =
    memo_value HS.find_opt HS.add
      (fun tb -> tb.num_consecutive_t)
      (l, in_dim)
      (fun () -> num_consecutive l ~in_dim)

  let free_variable_masks l =
    memo_value H1.find_opt H1.add
      (fun tb -> tb.free_masks_t)
      l
      (fun () -> free_variable_masks l)

  let apply_flat l =
    let m = to_matrix l in
    fun v -> F2.Bitmatrix.apply m v
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
        (List.init bits (fun k -> coords_to_assoc l.outs l.bases.(i).(k)));
      if i < Array.length l.ins - 1 then Format.fprintf ppf "@,")
    l.ins;
  Format.fprintf ppf "@,outs: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " x ")
       (fun ppf (d, bits) -> Format.fprintf ppf "%s[%d]" d (1 lsl bits)))
    (out_dims l)

let to_string l = Format.asprintf "%a" pp l
