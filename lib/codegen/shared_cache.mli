(** Process-wide sharded plan cache: the L2 behind {!Plan_cache}.

    {!Plan_cache}'s [Domain.DLS] tables give every domain a private,
    contention-free L1; this module is the level below it — one cache
    shared by {e every} domain of the process, so a plan computed by
    one engine worker (or preloaded from a {!Plan_store} file) is
    visible to all of them.  The table is split into {!stripe_count}
    stripes selected by the existing FNV structural key hash; each
    stripe holds two mutex-guarded hash tables (conversion plans and
    operand-staging plans, the two kinds {!Plan_cache} serves) with
    one set of hit/miss/insert counters.  Critical sections are a
    single probe or insert, and the L1 in front absorbs all repeat
    lookups, so the stripes only see each domain's first miss per key
    — the read-mostly pattern the striping is sized for.

    Plans depend only on immutable layouts and the machine description
    (identified by its [name]), so entries never need invalidation;
    [add] keeps the first value written and drops duplicates, which
    makes concurrent misses on the same key converge on one entry. *)

open Linear_layout

(** The structural key shared with {!Plan_cache}: machines are
    distinguished by name, layouts hashed with {!Layout.Memo.hash}. *)
module Key : sig
  type t = { machine : string; src : Layout.t; dst : Layout.t; byte_width : int }

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Number of stripes (a power of two; see DESIGN.md "Compilation
    service" for the sizing argument). *)
val stripe_count : int

(** {2 Lookups and inserts}

    [find_*] bumps the stripe's hit or miss counter; an L2 miss is
    exactly one planner invocation in {!Plan_cache}, so {!stats}'
    [misses] counts the planning work the whole process has done.
    [add_*] inserts only if the key is absent. *)

val find_conversion : Key.t -> Conversion.plan option
val add_conversion : Key.t -> Conversion.plan -> unit
val find_staging : Key.t -> Operand_staging.t option option
val add_staging : Key.t -> Operand_staging.t option -> unit

(** {2 Snapshots (for {!Plan_store})}

    Folds run stripe by stripe under the stripe lock; [f] must not
    call back into this module. *)

val fold_conversions : (Key.t -> Conversion.plan -> 'a -> 'a) -> 'a -> 'a
val fold_stagings : (Key.t -> Operand_staging.t option -> 'a -> 'a) -> 'a -> 'a

(** Entries across all stripes and kinds. *)
val length : unit -> int

(** {2 Statistics} *)

type stats = { hits : int; misses : int; inserts : int }

val zero_stats : stats

(** Pointwise sum — commutative and associative, so per-stripe stats
    merge in any order (like {!Obs.Metrics.merge}). *)
val merge_stats : stats -> stats -> stats

(** Per-stripe counters, index = stripe. *)
val stripe_stats : unit -> stats array

(** All stripes merged. *)
val stats : unit -> stats

val reset_stats : unit -> unit

(** Drop every entry in every stripe (counters are kept).  Simulates a
    process restart in tests and benchmarks; real traffic never needs
    it because plans are immutable. *)
val clear : unit -> unit
