(* See server.mli for the protocol.  The daemon is one acceptor domain
   (a [select] loop polling the stop flag, so shutdown never hangs on a
   blocking [accept]) feeding connections to a {!Par_eval.Pool}; all
   cross-domain request counters are atomics, while plan data flows
   through the {!Codegen.Shared_cache} mutex stripes. *)

(* Frames larger than this are rejected with [LL910]. *)
let max_frame = 1 lsl 20

(* {1 Framing} *)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = Unix.read fd b off (n - off) in
      if r = 0 then raise End_of_file;
      go (off + r)
    end
  in
  go 0;
  b

let recv_frame fd =
  let hdr = Bytes.create 4 in
  let first = Unix.read fd hdr 0 4 in
  if first = 0 then None
  else begin
    let rec go off =
      if off < 4 then begin
        let r = Unix.read fd hdr off (4 - off) in
        if r = 0 then raise End_of_file;
        go (off + r)
      end
    in
    go first;
    let len =
      (Char.code (Bytes.get hdr 0) lsl 24)
      lor (Char.code (Bytes.get hdr 1) lsl 16)
      lor (Char.code (Bytes.get hdr 2) lsl 8)
      lor Char.code (Bytes.get hdr 3)
    in
    if len > max_frame then failwith "oversized frame";
    Some (Bytes.unsafe_to_string (read_exact fd len))
  end

let send_frame fd s =
  let n = String.length s in
  if n > max_frame then invalid_arg "Server.send_frame: oversized frame";
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string s 0 b 4 n;
  let total = 4 + n in
  let rec go off = if off < total then go (off + Unix.write fd b off (total - off)) in
  go 0

(* {1 Requests} *)

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  pool : Par_eval.Pool.t;
  stopping : bool Atomic.t;
  served : int Atomic.t;
  plan_reqs : int Atomic.t;
  engine_reqs : int Atomic.t;
  errors : int Atomic.t;
  engine_words : int Atomic.t;
  plan_words : int Atomic.t;
  store : string option;
  report : Codegen.Plan_store.load_report;
  mutable acceptor : unit Domain.t option;
  join_lock : Mutex.t;
  mutable joined : bool;
}

exception Err of string

let err code fmt =
  Printf.ksprintf (fun m -> raise (Err (Printf.sprintf "ERR %s %s" code m))) fmt

let find_machine name =
  List.find_opt (fun m -> String.equal m.Gpusim.Machine.name name) Gpusim.Machine.all_with_extras

let cert_of (c : Analysis.Transval.cert) =
  {
    Codegen.Plan_store.method_ = Analysis.Transval.method_name c.Analysis.Transval.method_;
    points = c.Analysis.Transval.points;
    verdict = Analysis.Transval.verdict_name c.Analysis.Transval.verdict;
  }

(* The plan store's callbacks read the plan's certificate verdict
   ({!Analysis.Plan_verdict.cert}).  A loaded plan is a fresh value, so
   the warm start's [verify] runs the prover.  The save at shutdown runs
   in [wait]; on the domain that started the server it reads what
   [verify] stored, and proves only the plans first planned while
   serving. *)
let certify ~machine plan =
  match find_machine machine with
  | None -> None
  | Some m -> Some (cert_of (Analysis.Plan_verdict.cert m plan))

let verify ~machine plan (_ : Codegen.Plan_store.cert) =
  match find_machine machine with
  | None -> false
  | Some m -> (
      match (Analysis.Plan_verdict.cert m plan).Analysis.Transval.verdict with
      | Analysis.Transval.Proved -> true
      | Analysis.Transval.Refuted _ | Analysis.Transval.Failed _ -> false)

(* {2 Reading a request in place}

   A request is read where it lies in the payload, without splitting it
   into lines: the verb is the first non-empty line, and a key's value
   is the rest of the first later line that starts with [key=]. *)

type verb = Empty | Plan | Engine | Stats | Shutdown | Other

let rec line_end s i = if i < String.length s && s.[i] <> '\n' then line_end s (i + 1) else i
let rec skip_newlines s i = if i < String.length s && s.[i] = '\n' then skip_newlines s (i + 1) else i

(* Whether [s] holds [w] from [pos + j] on.  The helpers here recurse
   on explicit arguments: a local function that captured them would be
   a closure allocated on every call. *)
let rec holds_from s pos w j =
  j = String.length w || (s.[pos + j] = w.[j] && holds_from s pos w (j + 1))

(* Whether [s] holds [w] at [pos], ending at [stop]. *)
let spells s pos stop w = stop - pos = String.length w && holds_from s pos w 0

let verb_of payload =
  let a = skip_newlines payload 0 in
  let b = line_end payload a in
  if a = b then Empty
  else if spells payload a b "PLAN" then Plan
  else if spells payload a b "ENGINE" then Engine
  else if spells payload a b "STATS" then Stats
  else if spells payload a b "SHUTDOWN" then Shutdown
  else Other

let verb_text payload =
  let a = skip_newlines payload 0 in
  String.sub payload a (line_end payload a - a)

(* The position of [k]'s value, or -1 when no line after the verb's
   starts with [k=]. *)
let rec value_from payload k a =
  if a >= String.length payload then -1
  else
    let b = line_end payload a and kl = String.length k in
    if a + kl < b && payload.[a + kl] = '=' && holds_from payload a k 0 then a + kl + 1
    else value_from payload k (b + 1)

let value_pos payload k = value_from payload k (line_end payload (skip_newlines payload 0) + 1)

let value_at payload v = String.sub payload v (line_end payload v - v)

let get payload k =
  let v = value_pos payload k in
  if v < 0 then err "LL911" "missing key %s" k else value_at payload v

let get_int payload ~default k =
  let v = value_pos payload k in
  if v < 0 then match default with Some d -> d | None -> err "LL911" "missing key %s" k
  else
    let s = value_at payload v in
    match int_of_string_opt s with Some n -> n | None -> err "LL911" "bad integer %s for %s" s k

let rec machine_named payload v stop = function
  | [] -> err "LL912" "unknown machine %s" (String.sub payload v (stop - v))
  | (m : Gpusim.Machine.t) :: rest ->
      if spells payload v stop m.Gpusim.Machine.name then m else machine_named payload v stop rest

let rec kernel_named payload v stop = function
  | [] -> err "LL914" "unknown kernel %s" (String.sub payload v (stop - v))
  | (k : Kernels.kernel) :: rest ->
      if spells payload v stop k.Kernels.name then k else kernel_named payload v stop rest

let machine payload =
  let v = value_pos payload "machine" in
  if v < 0 then err "LL911" "missing key machine";
  machine_named payload v (line_end payload v) Gpusim.Machine.all_with_extras

(* {2 Replies}

   Replies are written into one buffer: no format string is
   interpreted on the warm path. *)

let add_int b n = Buffer.add_string b (string_of_int n)

let add_field b key n =
  Buffer.add_char b ' ';
  Buffer.add_string b key;
  Buffer.add_char b '=';
  add_int b n

(* Exactly [Printf.sprintf "%.0f"]: the nearest integer, ties to
   even.  Below 2{^53} a double's floor and fraction are exact, so the
   tie test is exact too; anything else, negative zero included, goes
   through [Printf]. *)
let rounded x =
  if (not (Float.sign_bit x)) && x < 0x1p53 then begin
    let f = Float.of_int (int_of_float x) in
    let d = x -. f in
    let i = int_of_float f in
    string_of_int (if d > 0.5 || (d = 0.5 && i land 1 = 1) then i + 1 else i)
  end
  else Printf.sprintf "%.0f" x

let engine_reply m (r : Engine.result) =
  let b = Buffer.create 96 in
  Buffer.add_string b "OK time=";
  Buffer.add_string b (rounded (Engine.time m r));
  add_field b "converts" r.Engine.converts;
  add_field b "noops" r.Engine.noop_converts;
  add_field b "loads" r.Engine.local_loads;
  add_field b "stores" r.Engine.local_stores;
  add_field b "remats" r.Engine.remats;
  add_field b "unsupported" (List.length r.Engine.unsupported);
  Buffer.contents b

let plan_reply (plan : Codegen.Conversion.plan) (cert : Analysis.Transval.cert) =
  let b = Buffer.create 64 in
  Buffer.add_string b "OK mechanism=";
  Buffer.add_string b (Codegen.Conversion.mechanism_slug plan.Codegen.Conversion.mechanism);
  Buffer.add_string b " cert=";
  Buffer.add_string b (Analysis.Transval.verdict_name cert.Analysis.Transval.verdict);
  add_field b "points" cert.Analysis.Transval.points;
  Buffer.contents b

let plan srv payload =
  Atomic.incr srv.plan_reqs;
  let m = machine payload in
  let layout k =
    match Linear_layout.Parse.of_string (get payload k) with
    | Ok l -> l
    | Error e -> err "LL913" "bad layout %s: %s" k e
  in
  let src = layout "src" in
  let dst = layout "dst" in
  let byte_width = get_int payload ~default:(Some 4) "byte_width" in
  if not (Codegen.Conversion.valid_byte_width m byte_width) then
    err "LL911" "bad byte_width %d" byte_width;
  let plan = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width in
  plan_reply plan (Analysis.Plan_verdict.cert m plan)

let engine srv payload =
  Atomic.incr srv.engine_reqs;
  let v = value_pos payload "kernel" in
  if v < 0 then err "LL911" "missing key kernel";
  let k = kernel_named payload v (line_end payload v) Kernels.all in
  let m = machine payload in
  let mode =
    let v = value_pos payload "mode" in
    let stop = if v < 0 then v else line_end payload v in
    if v < 0 || spells payload v stop "linear" then Engine.Linear
    else if spells payload v stop "legacy" then Engine.Legacy_mode
    else err "LL911" "bad mode %s" (String.sub payload v (stop - v))
  in
  let size = get_int payload ~default:(Some (List.hd k.Kernels.sizes)) "size" in
  if k.Kernels.needs_wgmma && not m.Gpusim.Machine.has_wgmma then
    err "LL911" "kernel %s needs wgmma, machine %s has none" k.Kernels.name
      m.Gpusim.Machine.name;
  engine_reply m (Engine.run m ~mode (k.Kernels.build ~size))

let stats srv =
  let s = Codegen.Shared_cache.stats () in
  Printf.sprintf
    "OK served=%d plan=%d engine=%d errors=%d shared_hits=%d shared_misses=%d \
     shared_inserts=%d store_loaded=%d store_rejected=%d domains=%d engine_words=%d \
     plan_words=%d"
    (Atomic.get srv.served) (Atomic.get srv.plan_reqs) (Atomic.get srv.engine_reqs)
    (Atomic.get srv.errors) s.Codegen.Shared_cache.hits s.Codegen.Shared_cache.misses
    s.Codegen.Shared_cache.inserts srv.report.Codegen.Plan_store.loaded
    srv.report.Codegen.Plan_store.rejected
    (Par_eval.Pool.domains srv.pool)
    (Atomic.get srv.engine_words) (Atomic.get srv.plan_words)

let handle srv verb payload =
  try
    match verb with
    | Empty -> "ERR LL910 empty request"
    | Plan -> plan srv payload
    | Engine -> engine srv payload
    | Stats -> stats srv
    | Shutdown ->
        Atomic.set srv.stopping true;
        "OK bye"
    | Other -> err "LL911" "unknown verb %s" (verb_text payload)
  with
  | Err m ->
      Atomic.incr srv.errors;
      m
  | e ->
      Atomic.incr srv.errors;
      Printf.sprintf "ERR LL911 request failed: %s" (Printexc.to_string e)

(* Each request's minor words, from before its frame is read to after
   its reply is sent, are charged to its verb. *)
let handle_conn srv fd =
  let rec loop () =
    let w0 = Gc.minor_words () in
    match recv_frame fd with
    | None -> ()
    | Some payload ->
        let verb = verb_of payload in
        let traced = Obs.enabled () in
        let t0 = if traced then Obs.Clock.now () else 0. in
        let span =
          Obs.Span.enter
            ?attrs:(if traced then Some [ ("verb", verb_text payload) ] else None)
            "server.request"
        in
        let reply = handle srv verb payload in
        Obs.Span.exit span;
        Atomic.incr srv.served;
        if traced then begin
          Obs.Metrics.incr "tir.server.requests";
          Obs.Metrics.observe "tir.server.latency_us"
            (int_of_float ((Obs.Clock.now () -. t0) *. 1e6))
        end;
        send_frame fd reply;
        let words = int_of_float (Gc.minor_words () -. w0) in
        (match verb with
        | Engine -> ignore (Atomic.fetch_and_add srv.engine_words words : int)
        | Plan -> ignore (Atomic.fetch_and_add srv.plan_words words : int)
        | Empty | Stats | Shutdown | Other -> ());
        loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try loop () with
      | End_of_file | Unix.Unix_error _ -> ()
      | Failure msg -> (
          (* torn or oversized frame: answer once, then drop the
             connection — the stream offset is no longer trustworthy *)
          Atomic.incr srv.errors;
          try send_frame fd (Printf.sprintf "ERR LL910 %s" msg)
          with Unix.Unix_error _ -> ()))

(* {1 Lifecycle} *)

let acceptor srv () =
  let rec loop () =
    if not (Atomic.get srv.stopping) then begin
      (match Unix.select [ srv.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept srv.listen_fd with
          | fd, _ ->
              if not (Par_eval.Pool.submit srv.pool (fun () -> handle_conn srv fd)) then (
                try Unix.close fd with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  (try loop () with _ -> ());
  try Unix.close srv.listen_fd with Unix.Unix_error _ -> ()

let store_report srv = srv.report

let start ?(domains = 1) ?store ?(reset = false) ~socket () =
  if reset then begin
    Codegen.Shared_cache.clear ();
    Codegen.Shared_cache.reset_stats ()
  end;
  let report =
    match store with
    | None -> Codegen.Plan_store.empty_report
    | Some path -> Codegen.Plan_store.load ~verify path
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let srv =
    {
      socket_path = socket;
      listen_fd = fd;
      pool = Par_eval.Pool.create ~domains ();
      stopping = Atomic.make false;
      served = Atomic.make 0;
      plan_reqs = Atomic.make 0;
      engine_reqs = Atomic.make 0;
      errors = Atomic.make 0;
      engine_words = Atomic.make 0;
      plan_words = Atomic.make 0;
      store;
      report;
      acceptor = None;
      join_lock = Mutex.create ();
      joined = false;
    }
  in
  srv.acceptor <- Some (Domain.spawn (acceptor srv));
  srv

let wait srv =
  Mutex.lock srv.join_lock;
  let mine = not srv.joined in
  if mine then srv.joined <- true;
  Mutex.unlock srv.join_lock;
  if mine then begin
    (match srv.acceptor with Some d -> Domain.join d | None -> ());
    Par_eval.Pool.shutdown srv.pool;
    (try Unix.unlink srv.socket_path with Unix.Unix_error _ -> ());
    match srv.store with
    | None -> ()
    | Some path -> ignore (Codegen.Plan_store.save ~certify path : int)
  end

let stop srv =
  Atomic.set srv.stopping true;
  wait srv

(* {1 Client} *)

module Client = struct
  type conn = Unix.file_descr

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

  let rpc fd req =
    send_frame fd req;
    match recv_frame fd with
    | Some r -> r
    | None -> failwith "Server.Client.rpc: server closed the connection"

  let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
end
