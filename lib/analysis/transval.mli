(** Translation validation of lowered plans over F2 (Necula-style
    per-translation proofs; cf. Alive2's per-pass verification).

    A conversion plan claims to re-distribute a tensor from a source
    layout to a destination layout, i.e. to implement the conversion map
    [pseudo_invert(flatten dst) . flatten src].  This module recovers
    the map a lowered {!Gpusim.Isa} program {e actually} implements by
    running the interpreter's {!Gpusim.Isa.exec} over a provenance
    domain — every register slot and shared-memory cell holds the
    flattened source hardware point whose value it contains, or bottom,
    and [Bin] writes bottom — and compares it against the
    claim in one walk over the destination slots, threads outer and
    slots inner, which visits the destination points [h] in increasing
    order.  Both layouts are linear, so each is evaluated from split
    tables — a register-part and a thread-part image table, two lookups
    and one XOR per point.  The walk reports the first unwritten point
    if there is one, else the first point [h] where the two maps
    disagree.  When both maps are
    affine that point is also the minimal-weight witness an affine fit
    would give — Hamming weight at most 1: with [d = got + want] affine,
    [d 0 <> 0] makes [0] the first mismatch, and otherwise it is [2^k]
    for the lowest [k] with [d (2^k) <> 0], since every [h < 2^k] lies
    in the span of the lower basis vectors, where [d] vanishes.  So no
    separate fit is needed, and non-affine realized maps take the same
    path.

    The scan is the refuter.  Before it runs, {!certify_isa} tries
    {!proves_in_closed_form}, which proves the shared-memory round
    trips and warp shuffles {!Codegen.Lower.conversion} emits from their
    instruction tables alone.  A closed-form proof yields the same
    certificate the scan would give, so certificates do not depend on
    which route decided them; a failed closed-form check falls through
    to the scan, the only path that returns [Refuted] and the only
    source of witnesses.

    Soundness: with the injective payload [value(hw) = hw] the concrete
    interpreter computes exactly the provenance function, so a [Proved]
    certificate implies the lowered program moves every logical element
    to every destination point that claims it, for {e all} payloads
    (the ISA is data-oblivious: no instruction's control depends on
    payload values).  Completeness on the same domain: any refutation
    replays as a concrete miscompare under the differential
    interpreter. *)

open Linear_layout

type refutation = {
  counterexample : int;  (** flattened destination hardware point *)
  got : int option;  (** logical element actually held; [None] = never written *)
  want : int;  (** logical element the conversion map requires *)
}

type verdict =
  | Proved
  | Refuted of refutation
  | Failed of string  (** lowering or symbolic execution crashed *)

type method_ =
  | Symbolic  (** provenance execution of the lowered ISA program *)
  | Algebraic  (** matrix-level proof (cross-CTA global round trips) *)

type cert = {
  mechanism : string;
  method_ : method_;
  points : int;  (** destination hardware points covered *)
  verdict : verdict;
}

val method_name : method_ -> string
val verdict_name : verdict -> string

(** [provenance ~map program] runs {!Gpusim.Isa.exec} on [program]
    from the canonical conversion pre-state ({!Codegen.Lower.fill_src}
    with every source point holding its own index) and returns the
    lookup [h -> p] ({!Codegen.Lower.read_dst}): for every destination
    hardware point [h], the flattened source point [p] whose value it
    ends up holding, or [-1] when it is never written.  Raises exactly
    what the concrete interpreter raises: [Failure] on a
    {!Gpusim.Isa.fault}, [Invalid_argument] on an out-of-range slot. *)
val provenance : map:Codegen.Lower.slot_map -> Gpusim.Isa.program -> int -> int

(** Certify an arbitrary lowered program against claimed source and
    destination layouts: the pre-state is loaded with
    {!Codegen.Lower.fill_src}, the post-state read back under
    {!Codegen.Lower.read_dst}'s slot convention (and its slot-range
    check) — the convention of {!Codegen.Lower.load_state} and
    {!Codegen.Lower.store_dist}.  [map.src_regs] and [map.dst_regs]
    must be powers of two, as every lowering makes them.  A program the
    interpreter rejects with [Failure msg] is [Failed msg].

    {!proves_in_closed_form} decides the program first; only when it
    answers [false] does the point scan run.  Either way the
    certificate is the scan's: [Proved] with [method_ = Symbolic],
    [mechanism = "isa"] and [points = dst_regs * warps * lanes].  With
    observability enabled each call increments
    [transval.route.closed_form] or [transval.route.scan]. *)
val certify_isa :
  src:Layout.t -> dst:Layout.t -> map:Codegen.Lower.slot_map -> Gpusim.Isa.program -> cert

(** [proves_in_closed_form ~src ~dst ~map program] is the proof
    {!certify_isa} tries before its scan.  It decides the two shapes
    {!Codegen.Lower.conversion} emits on the serving path from their
    tables, without running them:
    - a shared-memory round trip [St_shared+ ; Bar_sync* ; Ld_shared+]:
      a linear, injective map from logical element to shared-memory
      cell is solved from the stores on a basis, then the base and
      every column of each store's and load's address map, and every
      slot position, are checked against it (aligned to the vector
      width) — O(bits) work per instruction, none per thread — every source
      slot must be stored, every destination slot loaded, and the
      source must be surjective;
    - warp-shuffle rounds [(Sel ; Shfl_idx ; Scatter)+]: every lane
      that scatters must be kept by its round's shuffle, read a lane
      whose Sel picks a source slot in that round, and receive the
      element its destination point requires; the staging slots lie
      outside the data slots, and every destination point is written.
    Programs with an instruction {!Gpusim.Isa.fault} reports or an
    operand the interpreter's slot-range rule rejects are never proved.
    [true] implies that the scan proves [program] (the argument is in
    DESIGN.md, section Translation validation); [false] says nothing
    about it — every other shape (register permutes, broadcast-
    compressed shuffles, gathers, malformed programs) answers
    [false]. *)
val proves_in_closed_form :
  src:Layout.t -> dst:Layout.t -> map:Codegen.Lower.slot_map -> Gpusim.Isa.program -> bool

(** Certify a conversion plan — the uncached prover: every call lowers
    and proves again.  The daemon and [Tir.Certify] read the stored
    certificate {!Plan_verdict.cert} instead, which calls this once per
    plan value, machine and domain; tests and benchmark oracles call
    this directly to check the stored value.  It lowers the plan with
    {!Codegen.Lower.conversion} and certifies the program with
    {!certify_isa} — swizzled
    shared-memory round trips (with their vectorized ld/st addressing)
    and plain warp shuffles are proved in closed form, register
    permutes and broadcast-compressed shuffles by the scan; plans that
    are not {!Codegen.Lower.lowerable} (cross-CTA global round trips,
    CTA-shape mismatches) are proved algebraically.  Increments the
    [transval.certificates.*] metrics, and through {!certify_isa} the
    [transval.route.*] ones, when observability is enabled. *)
val certify_plan : Gpusim.Machine.t -> Codegen.Conversion.plan -> cert

(** Certify a lowered warp-shuffle gather against the index-dependent
    gather semantics (destination point [h] holds the source element at
    [h]'s coordinates with the gathered axis replaced by the index
    value).  The claim is not linear in the index data, so the walk
    evaluates it point by point instead of from split tables. *)
val certify_gather :
  Gpusim.Machine.t -> src:Gpusim.Dist.t -> index:Gpusim.Dist.t -> axis:int -> cert

(** [certify_gather_isa ~src ~index ~axis ~map program] certifies an
    already lowered gather program against the same semantics, with the
    source layout [src] and the slot convention of {!certify_isa}.
    {!certify_gather} is {!Codegen.Lower.gather} followed by this. *)
val certify_gather_isa :
  src:Layout.t ->
  index:Gpusim.Dist.t ->
  axis:int ->
  map:Codegen.Lower.slot_map ->
  Gpusim.Isa.program ->
  cert

(** Render a certificate as LL6xx diagnostics: [LL650] wrong element at
    a destination point, [LL651] destination point never written,
    [LL652] uncertifiable (lowering/execution failure); [Proved] yields
    no diagnostics. *)
val diagnostics : ?loc:Diagnostics.loc -> cert -> Diagnostics.t list
