(** Named counters and log₂-bucketed histograms in a
    global-but-resettable registry.

    The registry lives in [Domain.DLS] (the same approach as
    [Codegen.Plan_cache]), so concurrent domains never race on updates:
    each domain accumulates privately, and a parent merges worker
    {!snapshot}s with {!absorb} after joining them.

    All recording entry points are no-ops while the {!Obs.enabled} flag
    is off, so instrumentation left in hot paths costs one load and one
    branch when nothing is observing. *)

(** Number of histogram buckets; bucket 0 holds values [<= 0], bucket
    [i >= 1] holds [2^(i-1) <= v < 2^i], saturating at the last. *)
val buckets : int

val bucket : int -> int

val incr : ?by:int -> string -> unit

(** Record one histogram observation. *)
val observe : string -> int -> unit

(** Current value of a counter in this domain (0 if never bumped). *)
val counter_value : string -> int

(** Clear this domain's registry. *)
val reset : unit -> unit

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * int array) list;
}

val snapshot : unit -> snapshot

(** All metric names in the snapshot, sorted, deduplicated. *)
val names : snapshot -> string list

(** Associative and commutative: counters add, histogram buckets add
    pointwise. *)
val merge : snapshot -> snapshot -> snapshot

(** Structural equality up to trailing zero histogram buckets. *)
val snapshot_equal : snapshot -> snapshot -> bool

(** Fold a (typically worker-domain) snapshot into this domain's
    registry, with {!merge} semantics. *)
val absorb : snapshot -> unit

(** Flat metrics JSON:
    [{"counters":{...},"histograms":{"name":[b0,...]}}]. *)
val to_json : snapshot -> string

(** JSON string-body escaping shared by the exporters. *)
val json_escape : string -> string
