(* Timing, order statistics and JSON helpers shared by the benchmark. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in (0, 1]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 0.5
let median_list l = median (Array.of_list l)

(* Samples strictly above the [p] percentile: a percentile is only
   reported as trustworthy with at least ten of them. *)
let beyond n p = n - int_of_float (ceil (p *. float_of_int n))

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

(* A growable float buffer for per-request latencies. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* {1 Machine speed}

   The benchmark shares its host with other machines' work, which slows
   it by an amount that drifts from second to second.  A fixed piece of
   work that shares no code with the program under test — hashing, list
   allocation and pointer chasing through a table of a few megabytes,
   the kind of work the compiler does — is timed before and after every
   cycle.  A time divided by the speed factor around it is the time it
   would have taken at the speed the host had when the benchmark was
   defined. *)

let reference_work () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let k = i * 7919 land 0x3fff in
    Hashtbl.replace h k (List.init 8 (fun j -> k lxor j));
    match Hashtbl.find_opt h (k * 31 land 0x3fff) with
    | Some l -> acc := List.fold_left ( + ) !acc l
    | None -> ()
  done;
  !acc

(* Seconds [reference_work] took on the 2-vCPU machine the benchmark was
   defined on. *)
let reference_nominal_s = 0.04

(* The host's current slow-down: the best of three reference runs over
   the nominal time. *)
let speed_factor () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    ignore (Sys.opaque_identity (reference_work ()));
    best := Float.min !best (now () -. t0)
  done;
  !best /. reference_nominal_s

let minor_words () = Gc.minor_words ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Full precision: every digit as measured. *)
let json_num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
