(** Linear layouts: linear maps between labeled vector spaces over [F2]
    (Definition 4.1 of the paper).

    A layout maps a product of labeled input spaces (e.g.
    [register x lane x warp]) to a product of labeled output spaces
    (e.g. the logical tensor dimensions [dim0 x dim1]).  Each space
    [F2^k] holds indices [0 .. 2^k - 1]; [k] is called the {e bits} of
    the dimension.

    Dimension lists are canonicalized with {!Dims.compare}; the first
    dimension in canonical order occupies the least-significant bits of
    the flattened representation.  Two layouts over the same labeled
    spaces therefore always flatten compatibly.

    A layout stores its labelled dimensions and its matrix under that
    flattening (Section 4): one {!F2.Bitvec.t} column per input bit.
    Reading the matrix ({!to_matrix}, {!flat_columns}, {!apply_flat})
    costs no rebuild, and relabelling the outputs or inputs as a whole
    ({!flatten_outs}, {!flatten_ins}, {!reshape_outs}) leaves the matrix
    untouched. *)

type t

exception Error of string

(** {1 Construction} *)

(** The empty layout: no input and no output dimensions. *)
val empty : t

(** [identity1d bits ~in_dim ~out_dim] maps [in_dim] identically onto
    [out_dim], both of size [2^bits]. *)
val identity1d : int -> in_dim:string -> out_dim:string -> t

(** [zeros1d bits ~in_dim ~out_dim] maps all [2^bits] points of [in_dim]
    to index 0 of [out_dim] (which gets size 1, i.e. 0 bits). This is
    the broadcasting building block of Section 5.1. *)
val zeros1d : int -> in_dim:string -> out_dim:string -> t

(** [make ~ins ~outs ~bases] builds a layout explicitly. [ins] and
    [outs] give [(label, bits)] pairs in any order; [bases] gives, for
    each input label, the images of its basis vectors as
    [(out_label, coordinate)] associations (absent labels map to 0).
    Raises {!Error} on inconsistent data. *)
val make :
  ins:(string * int) list ->
  outs:(string * int) list ->
  bases:(string * (string * int) list list) list ->
  t

(** [of_matrix ~ins ~outs m] labels a bit-matrix whose column [j]
    (resp. row [i]) corresponds to bit [j] of the canonically flattened
    input (resp. output).  The layout holds [m] itself. *)
val of_matrix : ins:(string * int) list -> outs:(string * int) list -> F2.Bitmatrix.t -> t

(** {1 Observation} *)

val in_dims : t -> (string * int) list
val out_dims : t -> (string * int) list

(** The labelled output dims without the 0-bit ones: the logical space
    a layout covers.  Two layouts describe the same tensor exactly when
    their logical spaces are equal; equal bit totals are not enough, as
    an 8x4 and a 4x8 tensor show. *)
val logical_space : t -> (string * int) list
val has_in_dim : t -> string -> bool
val has_out_dim : t -> string -> bool

(** Bits of a dimension; [0] when the dimension is absent. *)
val in_bits : t -> string -> int

val out_bits : t -> string -> int
val total_in_bits : t -> int
val total_out_bits : t -> int

(** Number of points in an input dimension, [2^bits] ([1] if absent). *)
val in_size : t -> string -> int

val out_size : t -> string -> int

(** [basis l d k] is the image of basis vector [k] of input dimension
    [d], as [(out_label, coordinate)] pairs (zero coordinates omitted). *)
val basis : t -> string -> int -> (string * int) list

(** [basis_flat l d k] is the same image, flattened canonically. *)
val basis_flat : t -> string -> int -> int

(** [out_mask l d] is the flat mask of output dimension [d]'s bits in
    {!basis_flat}'s encoding; [0] when [l] has no output [d]. *)
val out_mask : t -> string -> int

(** Flattened images of all basis vectors of an input dimension —
    the column sets [L_Reg], [L_Thr], ... of Section 5.4. *)
val flat_columns : t -> string -> int list

(** [apply l point] maps a point given as [(in_label, index)] pairs
    (absent labels are 0) to [(out_label, index)] pairs. *)
val apply : t -> (string * int) list -> (string * int) list

(** [apply_flat l v] applies the layout to a canonically flattened input.
    Input bits at or above {!total_in_bits} are ignored.

    Cost model: [apply_flat l v] is {!F2.Bitmatrix.apply} on the stored
    matrix — allocation-free, one shift-and-XOR step per bit up to [v]'s
    highest set bit.  Partial and full application cost the same. *)
val apply_flat : t -> int -> int

(** The matrix of the layout under canonical flattening: a field read. *)
val to_matrix : t -> F2.Bitmatrix.t

(** [flatten_value dims point] packs per-dimension coordinates into the
    canonical flat representation for the given dimension list, and
    [unflatten_value dims v] unpacks it. *)
val flatten_value : (string * int) list -> (string * int) list -> int

val unflatten_value : (string * int) list -> int -> (string * int) list

(** {1 Algebra} *)

(** [mul a b] is the product layout (Definition 4.3): inputs and outputs
    are unions of the operands'; on dimensions both operands share, [a]
    occupies the low bits and [b] the high bits.  Dimension lists merge
    linearly; [mul empty l] and [mul l empty] are [l] itself. *)
val mul : t -> t -> t

(** [compose l2 l1] is [l2 o l1] (Definition 4.2): every output
    dimension of [l1] must be an input dimension of [l2] with at least
    as many bits. *)
val compose : t -> t -> t

(** Inverse of a bijective layout. Raises {!Error} if not invertible. *)
val invert : t -> t

(** Least-squares right inverse of a surjective layout (Definition 4.5):
    free variables are set to zero, so among all preimages the one with
    minimal Hamming weight built from pivots is chosen — the broadcast-
    promoting choice of Section 5.4. Raises {!Error} if not surjective. *)
val pseudo_invert : t -> t

(** [divide_left l t] is the label-wise left division [l /_l t]
    (Definition 4.4): [Some q] with [l = t x q] (label-wise block
    diagonal) when it exists. *)
val divide_left : t -> t -> t option

(** {1 Dimension surgery} *)

(** Keep only the listed output dimensions, {e projecting away} the
    rest — the slice of Proposition 4.8. *)
val project_outs : t -> string list -> t

val remove_out_dim : t -> string -> t

(** [exchange_out_names l spec] relabels output dimensions simultaneously
    (e.g. a transpose swaps ["dim0"] and ["dim1"]). *)
val exchange_out_names : t -> (string * string) list -> t

(** Replace output dimensions by a single dimension (default label
    {!Dims.flat}) holding the canonical flattening.  The matrix is
    unchanged, so {!to_matrix}, {!apply_flat} and {!flat_columns} give
    the same answers on [flatten_outs l] as on [l]. *)
val flatten_outs : ?name:string -> t -> t

val flatten_ins : ?name:string -> t -> t

(** [reshape_outs l outs] reinterprets the flattened output bits
    according to a new dimension list with the same total bits. *)
val reshape_outs : t -> (string * int) list -> t

(** [resize_in l d bits] grows (with zero columns, i.e. broadcasting) or
    shrinks (dropping high basis vectors) an input dimension. *)
val resize_in : t -> string -> int -> t

(** Remove input and output dimensions of size 1 (0 bits). *)
val drop_trivial_dims : t -> t

(** {1 Predicates and analyses} *)

val equal : t -> t -> bool

(** Equality after {!drop_trivial_dims} on both sides. *)
val equivalent : t -> t -> bool
val is_surjective : t -> bool
val is_injective : t -> bool
val is_invertible : t -> bool

(** Definition 4.10: surjective, every column has at most one set bit,
    and no two non-zero columns repeat. *)
val is_distributed : t -> bool

(** Definition 4.14: invertible with columns of 1 or 2 set bits. *)
val is_memory : t -> bool

(** Basis of the kernel, flattened: differences between hardware points
    holding the same tensor element (broadcasting structure, §5.1). *)
val kernel : t -> int list

(** Per-input-dimension masks of "free" basis vectors: bits that can be
    zeroed without losing surjectivity because their columns are
    dependent on earlier ones.  Threads/registers with a free bit set
    hold duplicated data (Section 5.1). *)
val free_variable_masks : t -> (string * int) list

(** [num_consecutive l ~in_dim] is [2^k] for the largest [k] such that
    the first [k] basis vectors of [in_dim] map identically onto the low
    bits of the flattened output — the contiguity analysis of
    Section 5.1 that drives vectorization. *)
val num_consecutive : t -> in_dim:string -> int

(** {1 Memoization}

    Layouts are immutable, so every operation is a pure function of its
    arguments and memo results never need invalidation.  [Memo] caches
    the operations that eliminate or compose — {!Memo.compose},
    {!Memo.invert}, {!Memo.echelon} and
    {!Memo.free_variable_masks} — behind per-domain ([Domain.DLS]) hash
    tables keyed by the structural hash every layout stores when it is
    built ({!Memo.hash}, O(1)): two structurally equal layouts built
    independently (as the engine does per instruction) share one cache
    entry, and a probe with an interned layout costs a hash read and a
    [==].  Reading the matrix needs no cache: use the
    plain {!to_matrix}, {!flat_columns} and {!num_consecutive}.
    Layout-valued results are hash-consed through {!Memo.intern}'s
    table.

    Each OCaml 5 domain owns a private set of tables — the parallel
    autotuner's worker domains warm their own caches and never contend
    — so counters and [clear] act on the calling domain only. *)
module Memo : sig
  (** The structural hash, O(1): computed once, when the layout is
      built, over every dimension and every raw column (unlike
      polymorphic [Hashtbl.hash], which truncates).  Equal layouts have
      equal hashes, and {!equal} compares the hashes before the
      structure. *)
  val hash : t -> int

  (** Canonical representative: structurally equal layouts intern to
      one physically shared value. *)
  val intern : t -> t

  (** Memoized counterparts of the plain operations. *)

  val compose : t -> t -> t
  val invert : t -> t
  val free_variable_masks : t -> (string * int) list

  (** [echelon l] is the memoized factorization of [l]'s matrix: one
      elimination per distinct layout, shared by {!invert} and
      {!is_invertible} — and available to callers
      with their own batches of right-hand sides (pair it with
      {!F2.Bitmatrix.solve_with}). *)
  val echelon : t -> F2.Bitmatrix.echelon

  (** Invertibility answered from {!echelon}'s cached factorization
      instead of a fresh elimination per call. *)
  val is_invertible : t -> bool

  (** [derive op srcs args compute] is [compute ()], interned, for a
      layout derived from [srcs] by the operation tagged [op] with the
      integer arguments [args]: one computation per key and domain,
      emptied by {!clear}, counted in {!hits}/{!misses}.  The key is
      [op], the interned [srcs] and [args], so [compute] must read
      nothing else, and the caller must not mutate [args] afterwards
      (pass a fresh array).  Layout identity decides a warm lookup:
      sources that are interned results compare by [==]. *)
  val derive : string -> t list -> int array -> (unit -> t) -> t

  (** {2 Tables for other pure constructors}

      A layout constructor outside this module whose result is a pure
      function of plain data (ints, arrays of ints, constant
      constructors) memoizes through a [table]: per-domain like the
      tables above, emptied by {!clear}, its lookups counted in
      {!hits}/{!misses}.  Keys are hashed and compared structurally,
      so a key must hold exactly the inputs the constructor reads and
      must own its arrays (copy a caller's array before keying on it). *)

  type ('k, 'v) table

  (** A fresh table; create it once, at module initialisation. *)
  val table : unit -> ('k, 'v) table

  (** [find_or_add t k compute] is the calling domain's entry for [k],
      computed by [compute ()] on a miss. *)
  val find_or_add : ('k, 'v) table -> 'k -> (unit -> 'v) -> 'v

  (** {2 Cache introspection} *)

  val hits : unit -> int
  val misses : unit -> int
  val reset_stats : unit -> unit

  (** Drop all memo tables of the calling domain, those made by {!table}
      included (counters are kept). *)
  val clear : unit -> unit
end

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
