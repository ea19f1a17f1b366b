(** Layout-compilation service: a Unix-domain-socket daemon in front of
    the shared plan cache.

    One process owns the {!Codegen.Shared_cache} and the
    {!Codegen.Plan_store} file; clients connect over a Unix socket and
    speak a length-prefixed request protocol.  Requests are served by a
    {!Par_eval.Pool} of worker domains, so concurrent clients share
    every plan through the cache's L2 while keeping their DLS L1s.

    {2 Protocol}

    Every frame — both directions — is a 4-byte big-endian payload
    length followed by that many bytes of UTF-8 text.  A request is a
    verb on the first line and [key=value] pairs on the following
    lines:

    - [PLAN] with [machine], [src], [dst] (layout literals in the
      {!Linear_layout.Parse} grammar) and optional [byte_width]
      (default 4): plans the conversion through the cache and replies
      [OK mechanism=<slug> cert=<verdict> points=<n>] — the plan is
      certified by {!Analysis.Transval} before the reply, so every
      served plan carries a verified F2 certificate.
    - [ENGINE] with [kernel], [machine], optional [mode]
      ([linear]/[legacy], default linear) and [size] (default: the
      kernel's smallest): runs the layout engine on the kernel tile and
      replies [OK time=<t> converts=<n> noops=<n> loads=<n> stores=<n>
      remats=<n> unsupported=<n>].
    - [STATS]: replies [OK served=... plan=... engine=... errors=...
      shared_hits=... shared_misses=... shared_inserts=...
      store_loaded=... store_rejected=... domains=...].
      [shared_misses] counts the process's planner invocations (see
      {!Codegen.Plan_cache}) — a warm-started server that re-plans
      nothing shows a delta of zero.
    - [SHUTDOWN]: replies [OK bye] and begins a graceful stop:
      the listener closes, in-flight requests drain, and the store (if
      configured) is saved with fresh certificates.

    Errors are single-line replies [ERR <code> <message>] with the
    LL91x codes: [LL910] malformed/empty/oversized frame, [LL911] bad
    request (unknown verb, missing or unparseable key), [LL912] unknown
    machine, [LL913] bad layout literal, [LL914] unknown kernel.  Every
    request runs under an [Obs] span and records its latency in the
    ["tir.server.latency_us"] histogram. *)

(** {2 Framing} (exposed for clients and tests) *)

(** [None] on clean EOF; raises on a torn read; frames larger than
    1 MiB are rejected with [LL910]. *)
val recv_frame : Unix.file_descr -> string option

(** {2 Daemon} *)

type t

(** [start ~socket ()] binds [socket] (replacing a stale file) and
    serves until {!stop}.  [domains] sizes the worker pool (default 1).
    [store] names a {!Codegen.Plan_store} file: it is loaded — with
    {!Analysis.Transval} re-verification — before serving, and saved
    back on shutdown.  [reset] (default false) clears the in-process
    shared cache and its counters first, simulating a fresh process in
    tests and benchmarks that restart the server in one binary. *)
val start : ?domains:int -> ?store:string -> ?reset:bool -> socket:string -> unit -> t

(** The load report of the warm start ({!Codegen.Plan_store.empty_report}
    when no store was configured). *)
val store_report : t -> Codegen.Plan_store.load_report

(** Block until the server has stopped (a [SHUTDOWN] request, or
    {!stop} from another thread), draining in-flight requests, joining
    the pool and saving the store.  Idempotent. *)
val wait : t -> unit

(** Request a stop and {!wait}. *)
val stop : t -> unit

(** {2 Client} *)

module Client : sig
  type conn

  val connect : string -> conn

  (** One request frame out, one reply frame back. *)
  val rpc : conn -> string -> string

  val close : conn -> unit
end
