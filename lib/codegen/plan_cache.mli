(** Two-level cache of conversion and operand-staging plans, keyed by
    [(machine, src, dst, byte_width)].

    Planning a single conversion runs several Gaussian eliminations and
    a swizzle search; the layout engine and the autotuner re-plan
    byte-identical conversions once per program edge per configuration.
    These are the only two kinds the pipeline requests: the shuffle and
    swizzle planners run inside {!Conversion.plan}, and their results
    are cached as the mechanism of the conversion plan.

    The cache has two levels:

    - {b L1}: a private [Domain.DLS] table per OCaml 5 domain (the same
      approach as {!Linear_layout.Layout.Memo}).  Lookups never
      contend, and repeats within a domain never leave it.
    - {b L2}: the process-wide sharded {!Shared_cache}, probed on an L1
      miss.  A plan computed by any domain — or preloaded from a
      {!Plan_store} file at warm start — is published there and serves
      every other domain's first miss on the key.

    The planner itself only runs on an L2 miss, so
    [Shared_cache.(stats ()).misses] counts the process's planner
    invocations; {!hits}/{!misses} below keep their historic meaning
    (L1 traffic of the calling domain — in a single-domain process with
    an empty L2, identical to the planner's own hit/miss profile).

    Plans depend only on immutable layouts and the machine description,
    so entries never need invalidation.  Machines are distinguished by
    their [name] field. *)

open Linear_layout

(** Cached {!Conversion.plan}.  Raises [Invalid_argument], naming the
    width and the machine, when [byte_width] fails
    {!Conversion.valid_byte_width}; nothing is planned or cached then.
    {!staging} checks the same way. *)
val conversion :
  Gpusim.Machine.t -> src:Layout.t -> dst:Layout.t -> byte_width:int -> Conversion.plan

(** The cached plan and its model price {!Conversion.cost}, from one
    lookup.  The price is computed once per plan and domain and kept in
    the L1 entry; each call returns a fresh copy, so the caller may
    mutate it. *)
val priced :
  Gpusim.Machine.t ->
  src:Layout.t ->
  dst:Layout.t ->
  byte_width:int ->
  Conversion.plan * Gpusim.Cost.t

(** Cached {!Operand_staging.plan}. *)
val staging :
  Gpusim.Machine.t -> src:Layout.t -> dst:Layout.t -> byte_width:int -> Operand_staging.t option

(** {2 L1 introspection (calling domain only)}

    The shared L2's counters live in {!Shared_cache.stats};
    {!Shared_cache.clear} drops the L2 (e.g. to simulate a process
    restart — {!clear} below only empties the calling domain's L1, so
    after it a lookup can still be served without re-planning). *)

val hits : unit -> int
val misses : unit -> int
val reset_stats : unit -> unit
val clear : unit -> unit
