(* An in-memory ring buffer of span events, and the global sink the
   instrumentation writes to.

   The sink is shared by every domain (Autotune workers record into the
   same trace as the parent), so [record] takes a mutex; the lock is
   only ever touched when instrumentation is enabled. *)

type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  ts : float;  (* seconds, from Clock *)
  tid : int;  (* recording domain *)
  attrs : (string * string) list;
}

type t = {
  capacity : int;
  buf : event option array;
  mutable next : int;  (* total events ever recorded *)
  lock : Mutex.t;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be positive";
  { capacity; buf = Array.make capacity None; next = 0; lock = Mutex.create () }

let record t e =
  Mutex.lock t.lock;
  t.buf.(t.next mod t.capacity) <- Some e;
  t.next <- t.next + 1;
  Mutex.unlock t.lock

let length t = min t.next t.capacity
let dropped t = max 0 (t.next - t.capacity)

(* Oldest surviving event first. *)
let events t =
  Mutex.lock t.lock;
  let n = length t in
  let start = t.next - n in
  let out = List.init n (fun i -> Option.get t.buf.((start + i) mod t.capacity)) in
  Mutex.unlock t.lock;
  out

let clear t =
  Mutex.lock t.lock;
  Array.fill t.buf 0 t.capacity None;
  t.next <- 0;
  Mutex.unlock t.lock

(* {1 The installed sink} *)

let sink : t option Atomic.t = Atomic.make None
let current () = Atomic.get sink

let install t =
  Atomic.set sink (Some t);
  Control.set_enabled true

let with_sink t f =
  let prev_sink = Atomic.get sink and prev_enabled = Control.enabled () in
  Atomic.set sink (Some t);
  Control.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set sink prev_sink;
      Control.set_enabled prev_enabled)
    f

let emit e = match Atomic.get sink with Some t -> record t e | None -> ()
