(** Pure layout/cost helpers shared by the engine passes: default
    blocked anchors, mma operand/output layouts, vectorization widths,
    the coalescing model for global accesses, and the shape-op layout
    transfer functions (Section 4.4). *)

open Linear_layout

val byte_width_of : Tensor_lib.Dtype.t -> int

(** {1 Memoized target layouts}

    {!default_blocked}, {!anchor_candidates} and {!dot_layouts} are pure
    functions of the machine's [warp_size] (and [vendor], for
    {!dot_layouts}), [num_warps], the shape and the dtype(s).  Each is
    built once per key in a per-domain {!Linear_layout.Layout.Memo.table}
    keyed by exactly those inputs and a copy of the shape array (not the
    machine name); the entries live until {!Linear_layout.Layout.Memo.clear}
    empties them, and every lookup counts in [Layout.Memo.hits]/[misses].
    Returned layouts are interned ({!Linear_layout.Layout.Memo.intern})
    and shared between callers. *)

(** The coalesced blocked anchor layout for a tensor (Section 4.4). *)
val default_blocked :
  Gpusim.Machine.t ->
  num_warps:int ->
  shape:int array ->
  dtype:Tensor_lib.Dtype.t ->
  Layout.t

(** Alternative anchor candidates around the greedy default
    ({!default_blocked}): scalar, half- and full-vector runs plus the
    order-flipped variant, feasibility-pruned and deduplicated against
    the default and each other, paired with the number of candidates
    cut. *)
val anchor_candidates :
  Gpusim.Machine.t ->
  num_warps:int ->
  shape:int array ->
  dtype:Tensor_lib.Dtype.t ->
  Layout.t list * int

(** Reify the anchor choice between {!default_blocked} and its
    {!anchor_candidates} as a {!Strategy.Anchor} site (alternatives
    lazily enumerated) and return the committed layout. *)
val choose_anchor :
  Pass.state ->
  at:Program.id ->
  shape:int array ->
  dtype:Tensor_lib.Dtype.t ->
  Layout.t

val mma_bitwidth : Tensor_lib.Dtype.t -> int

(** [(fits, out, a, b)] for a dot of the given problem shape: [fits]
    holds when every tensor dimension holds at least one mma tile of
    the operands' mma bitwidths, and the
    layouts are mma layouts when it holds, blocked fallbacks when the
    shape is below one mma tile. *)
val dot_layouts :
  Gpusim.Machine.t ->
  num_warps:int ->
  m:int ->
  n:int ->
  k:int ->
  a_dtype:Tensor_lib.Dtype.t ->
  b_dtype:Tensor_lib.Dtype.t ->
  bool * Layout.t * Layout.t * Layout.t

(** Mode-dispatching vectorization width. *)
val vec_for : Pass.state -> Layout.t -> byte_width:int -> int

(** [(instructions, transactions)] for a global access of the layout
    under the given vectorization, summed over all warps: [regs / vec]
    instructions per warp, each touching
    {!Gpusim.Coalesce.warp_sectors} sectors.  Raises
    [Invalid_argument] on a non-aligned access (see there). *)
val global_access_counts : Layout.t -> byte_width:int -> vec:int -> int * int

(** [axis_bits l in_dim ~axis] counts the bits of input dimension
    [in_dim] whose basis vector moves along logical dimension [axis]:
    the shuffle (lane) or shared-memory (warp) rounds of a reduction or
    scan over [axis]. *)
val axis_bits : Layout.t -> string -> axis:int -> int

(** Abstract time of a [src] -> [dst] conversion in the state's mode,
    for the backward pass's remat / direct-store comparisons.  In linear
    mode the price is the plan cache's ({!Codegen.Plan_cache.priced}). *)
val convert_estimate :
  Pass.state -> src:Layout.t -> dst:Layout.t -> byte_width:int -> float

(** [transfer op srcs ~args ~shape compute] is the forward pass's
    layout transfer [compute ()] from the source layouts [srcs] by the
    op tagged [op], with the op's integer arguments [args] and the
    result [shape]: computed once per key and domain through
    {!Linear_layout.Layout.Memo.derive} and returned interned, so a
    re-run of a program sees physically the layouts of its first run.
    The key holds copies of [args] and [shape]; [compute] must read
    nothing but these and [srcs]. *)
val transfer :
  string -> Layout.t list -> args:int array -> shape:int array -> (unit -> Layout.t) -> Layout.t

val sliced_kind : Legacy.Support.layout_kind -> Legacy.Support.layout_kind

(** Renames dimK -> dimK+delta for K >= axis (delta = +1/-1). *)
val rename_dims_above : Layout.t -> axis:int -> delta:int -> Layout.t

(** Broadcast transfer function: grow size-1 output dimensions to
    [shape] through the input's free lane/warp bits (Section 6.2). *)
val broadcast_layout : Layout.t -> shape:int array -> Layout.t
