open Linear_layout

module Key = struct
  type t = { machine : string; src : Layout.t; dst : Layout.t; byte_width : int }

  let equal a b =
    a.byte_width = b.byte_width
    && String.equal a.machine b.machine
    && Layout.equal a.src b.src
    && Layout.equal a.dst b.dst

  (* FNV-style structural hash: [Layout.Memo.hash] visits every basis
     coordinate, so structurally equal layouts built by different
     domains land in the same stripe. *)
  let hash k =
    (Hashtbl.hash k.machine * 0x01000193)
    lxor (Layout.Memo.hash k.src * 31)
    lxor Layout.Memo.hash k.dst lxor k.byte_width
end

module H = Hashtbl.Make (Key)

(* 16 stripes: a process of N engine domains sees at most N concurrent
   first-miss probes, and the built-in machine x kernel traffic spreads
   over a few hundred distinct keys, so 16 keeps the expected waiters
   per stripe below one for any domain count the autotuner or server
   pool uses (they clamp to the core count). *)
let stripe_count = 16

type stripe = {
  lock : Mutex.t;
  conv : Conversion.plan H.t;
  stage : Operand_staging.t option H.t;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
}

let stripes =
  Array.init stripe_count (fun _ ->
      {
        lock = Mutex.create ();
        conv = H.create 32;
        stage = H.create 16;
        hits = 0;
        misses = 0;
        inserts = 0;
      })

let stripe_of k = stripes.(Key.hash k land (stripe_count - 1))

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let find sel k =
  let s = stripe_of k in
  let r =
    locked s (fun () ->
        let r = H.find_opt (sel s) k in
        (match r with
        | Some _ -> s.hits <- s.hits + 1
        | None -> s.misses <- s.misses + 1);
        r)
  in
  (match r with
  | Some _ -> Obs.Metrics.incr "codegen.shared_cache.hits"
  | None -> Obs.Metrics.incr "codegen.shared_cache.misses");
  r

let add sel k v =
  let s = stripe_of k in
  locked s (fun () ->
      if not (H.mem (sel s) k) then begin
        H.add (sel s) k v;
        s.inserts <- s.inserts + 1
      end)

let find_conversion k = find (fun s -> s.conv) k
let add_conversion k v = add (fun s -> s.conv) k v
let find_staging k = find (fun s -> s.stage) k
let add_staging k v = add (fun s -> s.stage) k v

let fold sel f acc =
  Array.fold_left (fun acc s -> locked s (fun () -> H.fold f (sel s) acc)) acc stripes

let fold_conversions f acc = fold (fun s -> s.conv) f acc
let fold_stagings f acc = fold (fun s -> s.stage) f acc

let length () =
  Array.fold_left
    (fun acc s -> locked s (fun () -> acc + H.length s.conv + H.length s.stage))
    0 stripes

type stats = { hits : int; misses : int; inserts : int }

let zero_stats = { hits = 0; misses = 0; inserts = 0 }

let merge_stats a b =
  { hits = a.hits + b.hits; misses = a.misses + b.misses; inserts = a.inserts + b.inserts }

let stripe_stats () =
  Array.map
    (fun s -> locked s (fun () -> { hits = s.hits; misses = s.misses; inserts = s.inserts }))
    stripes

let stats () = Array.fold_left merge_stats zero_stats (stripe_stats ())

let reset_stats () =
  Array.iter
    (fun s ->
      locked s (fun () ->
          s.hits <- 0;
          s.misses <- 0;
          s.inserts <- 0))
    stripes

let clear () =
  Array.iter
    (fun s ->
      locked s (fun () ->
          H.reset s.conv;
          H.reset s.stage))
    stripes
