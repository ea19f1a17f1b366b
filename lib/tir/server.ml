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
    Some (Bytes.to_string (read_exact fd len))
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

let certify ~machine plan =
  match find_machine machine with
  | None -> None
  | Some m -> Some (cert_of (Analysis.Transval.certify_plan m plan))

let verify ~machine plan (_ : Codegen.Plan_store.cert) =
  match find_machine machine with
  | None -> false
  | Some m -> (
      match (Analysis.Transval.certify_plan m plan).Analysis.Transval.verdict with
      | Analysis.Transval.Proved -> true
      | Analysis.Transval.Refuted _ | Analysis.Transval.Failed _ -> false)

let kv_of lines =
  List.filter_map
    (fun l ->
      match String.index_opt l '=' with
      | None -> None
      | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)))
    lines

let handle srv payload =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' payload) in
  match lines with
  | [] -> "ERR LL910 empty request"
  | verb :: rest -> (
      let kv = kv_of rest in
      let get k =
        match List.assoc_opt k kv with
        | Some v -> v
        | None -> err "LL911" "missing key %s" k
      in
      let get_int ?default k =
        match (List.assoc_opt k kv, default) with
        | None, Some d -> d
        | None, None -> err "LL911" "missing key %s" k
        | Some v, _ -> (
            match int_of_string_opt v with
            | Some n -> n
            | None -> err "LL911" "bad integer %s for %s" v k)
      in
      let machine () =
        let name = get "machine" in
        match find_machine name with
        | Some m -> m
        | None -> err "LL912" "unknown machine %s" name
      in
      try
        match verb with
        | "PLAN" ->
            Atomic.incr srv.plan_reqs;
            let m = machine () in
            let layout k =
              match Linear_layout.Parse.of_string (get k) with
              | Ok l -> l
              | Error e -> err "LL913" "bad layout %s: %s" k e
            in
            let src = layout "src" and dst = layout "dst" in
            let byte_width = get_int ~default:4 "byte_width" in
            if not (Codegen.Conversion.valid_byte_width m byte_width) then
              err "LL911" "bad byte_width %d" byte_width;
            let plan = Codegen.Plan_cache.conversion m ~src ~dst ~byte_width in
            let cert = Analysis.Transval.certify_plan m plan in
            Printf.sprintf "OK mechanism=%s cert=%s points=%d"
              (Codegen.Conversion.mechanism_slug plan.Codegen.Conversion.mechanism)
              (Analysis.Transval.verdict_name cert.Analysis.Transval.verdict)
              cert.Analysis.Transval.points
        | "ENGINE" ->
            Atomic.incr srv.engine_reqs;
            let kname = get "kernel" in
            let k =
              match
                List.find_opt (fun k -> String.equal k.Kernels.name kname) Kernels.all
              with
              | Some k -> k
              | None -> err "LL914" "unknown kernel %s" kname
            in
            let m = machine () in
            let mode =
              match List.assoc_opt "mode" kv with
              | None | Some "linear" -> Engine.Linear
              | Some "legacy" -> Engine.Legacy_mode
              | Some v -> err "LL911" "bad mode %s" v
            in
            let size = get_int ~default:(List.hd k.Kernels.sizes) "size" in
            if k.Kernels.needs_wgmma && not m.Gpusim.Machine.has_wgmma then
              err "LL911" "kernel %s needs wgmma, machine %s has none" kname
                m.Gpusim.Machine.name;
            let r = Engine.run m ~mode (k.Kernels.build ~size) in
            Printf.sprintf
              "OK time=%.0f converts=%d noops=%d loads=%d stores=%d remats=%d unsupported=%d"
              (Engine.time m r) r.Engine.converts r.Engine.noop_converts r.Engine.local_loads
              r.Engine.local_stores r.Engine.remats
              (List.length r.Engine.unsupported)
        | "STATS" ->
            let s = Codegen.Shared_cache.stats () in
            Printf.sprintf
              "OK served=%d plan=%d engine=%d errors=%d shared_hits=%d shared_misses=%d \
               shared_inserts=%d store_loaded=%d store_rejected=%d domains=%d"
              (Atomic.get srv.served) (Atomic.get srv.plan_reqs) (Atomic.get srv.engine_reqs)
              (Atomic.get srv.errors) s.Codegen.Shared_cache.hits s.Codegen.Shared_cache.misses
              s.Codegen.Shared_cache.inserts srv.report.Codegen.Plan_store.loaded
              srv.report.Codegen.Plan_store.rejected
              (Par_eval.Pool.domains srv.pool)
        | "SHUTDOWN" ->
            Atomic.set srv.stopping true;
            "OK bye"
        | v -> err "LL911" "unknown verb %s" v
      with
      | Err m ->
          Atomic.incr srv.errors;
          m
      | e ->
          Atomic.incr srv.errors;
          Printf.sprintf "ERR LL911 request failed: %s" (Printexc.to_string e))

let handle_conn srv fd =
  let rec loop () =
    match recv_frame fd with
    | None -> ()
    | Some payload ->
        let t0 = Obs.Clock.now () in
        let verb =
          match String.index_opt payload '\n' with
          | Some i -> String.sub payload 0 i
          | None -> payload
        in
        let reply =
          Obs.Span.with_ ~attrs:[ ("verb", verb) ] "server.request" (fun () ->
              handle srv payload)
        in
        Atomic.incr srv.served;
        Obs.Metrics.incr "tir.server.requests";
        Obs.Metrics.observe "tir.server.latency_us"
          (int_of_float ((Obs.Clock.now () -. t0) *. 1e6));
        send_frame fd reply;
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
