(** Disk persistence of certified plans: warm-start for the
    {!Shared_cache}.

    A store file is a snapshot of the shared cache — every conversion
    plan ([conv] line) and operand-staging plan ([stage] line), the
    only two kinds the pipeline caches — serialized with a versioned
    line-oriented codec (layouts in the {!Linear_layout.Parse} grammar)
    together with the F2 translation-validation certificate of the
    producing process.  Files are written atomically (a temp file in
    the same directory, then [Sys.rename]) so a crashed or concurrent
    writer can never leave a half-written store behind, and carry an
    entry count plus a checksum over the payload so truncation and bit
    flips are detected.

    Loading {e never} produces a wrong plan: any corruption degrades to
    a cache miss with an [LL9xx] warning ([LL900] corrupt/unreadable,
    [LL901] version mismatch, [LL902] certificate rejected), and a
    conversion entry is only admitted if its stored certificate claims
    [proved] {e and} the [verify] callback re-proves it (the server
    passes [Analysis.Transval] re-certification).  Certification lives
    a library above this one, so both directions are callbacks:
    [certify] stamps entries at save time, [verify] re-checks them at
    load time.

    Version policy: {!version} is a single integer; any change to the
    line format bumps it, old files load as misses ([LL901]) and are
    rewritten in the new format by the next save — no migration code,
    because a store is only ever a cache.  Version 2 dropped the
    standalone [shuf] and [swiz] lines of version 1; shuffle and
    swizzle plans persist only as the mechanism of a [conv] line. *)

open Linear_layout

(** Current codec version. *)
val version : int

(** The certificate stamped on a persisted plan: the producing
    process's {!Analysis.Transval} result, reduced to its stable names
    ([method_] is ["symbolic"] or ["algebraic"], [verdict] is
    ["proved"] / ["refuted"] / ["failed"]). *)
type cert = { method_ : string; points : int; verdict : string }

type load_report = {
  loaded : int;  (** entries admitted into the shared cache *)
  rejected : int;  (** entries dropped (corrupt or certificate-rejected) *)
  diags : Diagnostics.t list;  (** LL900-LL902 warnings, empty on a clean load *)
}

val empty_report : load_report

(** [save ~certify path] atomically writes a snapshot of the
    {!Shared_cache} to [path] and returns the number of entries
    written.  [certify] (given the machine {e name} and a conversion
    plan) produces the certificate to stamp; entries it declines are
    persisted uncertified and will be rejected on load.  Staging plans
    carry no certificate: they are re-checked structurally at load
    time. *)
val save : certify:(machine:string -> Conversion.plan -> cert option) -> string -> int

(** [load ~verify path] reads a store file and inserts every admitted
    entry into the {!Shared_cache}.  A missing file is a clean cold
    start (empty report, no diagnostics).  Conversion entries are
    admitted only if their stored certificate says [proved] and
    [verify] re-proves it (see above). *)
val load : verify:(machine:string -> Conversion.plan -> cert -> bool) -> string -> load_report
