(* Named counters and log2-bucketed histograms.

   The registry is global-but-resettable and lives in [Domain.DLS] — the
   same discipline as Codegen.Plan_cache — so concurrent domains (e.g.
   Autotune.best ?domains) never race on counter updates: each domain
   accumulates privately and the parent merges worker {!snapshot}s with
   {!absorb} after joining. *)

let buckets = 63

(* Bucket 0 holds v <= 0, bucket i >= 1 holds 2^(i-1) <= v < 2^i,
   saturating at the last bucket. *)
let bucket v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (buckets - 1) (bits v 0)
  end

type registry = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, int array) Hashtbl.t;
}

let fresh () = { counters = Hashtbl.create 64; histograms = Hashtbl.create 32 }

let dls = Domain.DLS.new_key fresh
let registry () = Domain.DLS.get dls

let incr ?(by = 1) name =
  if Control.enabled () then begin
    let r = registry () in
    match Hashtbl.find_opt r.counters name with
    | Some c -> c := !c + by
    | None -> Hashtbl.add r.counters name (ref by)
  end

let observe name v =
  if Control.enabled () then begin
    let r = registry () in
    let h =
      match Hashtbl.find_opt r.histograms name with
      | Some h -> h
      | None ->
          let h = Array.make buckets 0 in
          Hashtbl.add r.histograms name h;
          h
    in
    let b = bucket v in
    h.(b) <- h.(b) + 1
  end

let counter_value name =
  match Hashtbl.find_opt (registry ()).counters name with Some c -> !c | None -> 0

let reset () =
  let r = registry () in
  Hashtbl.reset r.counters;
  Hashtbl.reset r.histograms

(* {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;
  histograms : (string * int array) list;
}

let sorted_assoc tbl ~f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  let r = registry () in
  {
    counters = sorted_assoc r.counters ~f:( ! );
    histograms = sorted_assoc r.histograms ~f:Array.copy;
  }

let names s =
  List.map fst s.counters @ List.map fst s.histograms
  |> List.sort_uniq String.compare

(* Merge is associative and commutative: counters add, histogram
   buckets add pointwise (ragged lengths are padded). *)
let merge_assoc cmp combine a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        let c = cmp ka kb in
        if c < 0 then (ka, va) :: go ta b
        else if c > 0 then (kb, vb) :: go a tb
        else (ka, combine va vb) :: go ta tb
  in
  go a b

let merge_histo a b =
  let n = max (Array.length a) (Array.length b) in
  Array.init n (fun i ->
      (if i < Array.length a then a.(i) else 0) + if i < Array.length b then b.(i) else 0)

let merge a b =
  {
    counters = merge_assoc String.compare ( + ) a.counters b.counters;
    histograms = merge_assoc String.compare merge_histo a.histograms b.histograms;
  }

(* Structural equality up to trailing zero buckets (so padding done by
   [merge] is invisible). *)
let trim h =
  let n = ref (Array.length h) in
  while !n > 0 && h.(!n - 1) = 0 do decr n done;
  Array.sub h 0 !n

let snapshot_equal a b =
  a.counters = b.counters
  && List.length a.histograms = List.length b.histograms
  && List.for_all2
       (fun (ka, ha) (kb, hb) -> ka = kb && trim ha = trim hb)
       a.histograms b.histograms

(* Fold a worker domain's snapshot into this domain's registry (with
   [merge]'s semantics). *)
let absorb (s : snapshot) =
  let r = registry () in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt r.counters k with
      | Some c -> c := !c + v
      | None -> Hashtbl.add r.counters k (ref v))
    s.counters;
  List.iter
    (fun (k, h) ->
      match Hashtbl.find_opt r.histograms k with
      | Some h0 ->
          Array.iteri (fun i v -> if i < Array.length h0 then h0.(i) <- h0.(i) + v) h
      | None -> Hashtbl.add r.histograms k (merge_histo h [||]))
    s.histograms

(* {1 Export} *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json (s : snapshot) =
  let field k v = Printf.sprintf "\"%s\":%s" (json_escape k) v in
  let obj entries = "{" ^ String.concat "," entries ^ "}" in
  obj
    [
      field "counters"
        (obj (List.map (fun (k, v) -> field k (string_of_int v)) s.counters));
      field "histograms"
        (obj
           (List.map
              (fun (k, h) ->
                field k
                  ("["
                  ^ String.concat ","
                      (Array.to_list (Array.map string_of_int (trim h)))
                  ^ "]"))
              s.histograms));
    ]
