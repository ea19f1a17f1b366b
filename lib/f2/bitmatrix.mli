(** Matrices over [F2], stored column-major.

    A matrix with [rows] rows and [n] columns represents a linear map
    [F2^n -> F2^rows]; column [j] is the image of the basis vector [e_j],
    stored as a {!Bitvec.t}. *)

type t

(** [make ~rows cols] builds a matrix from its columns. Raises
    [Invalid_argument] if a column has a set bit at or above [rows], or
    if [rows] exceeds {!Bitvec.max_bits} (62 on 64-bit platforms) —
    oversized dimensions used to wrap silently through out-of-range
    shifts; they now fail loudly. *)
val make : rows:int -> Bitvec.t array -> t

val rows : t -> int
val cols : t -> int

(** [column m j] is the [j]-th column as a bit-vector. *)
val column : t -> int -> Bitvec.t

val columns : t -> Bitvec.t array

(** [get m i j] is entry (row [i], column [j]). *)
val get : t -> int -> int -> bool

val identity : int -> t
val zero : rows:int -> cols:int -> t

(** [apply m v] is the matrix-vector product [m v] over [F2].  Bits of
    [v] at or above [cols m] are ignored.  Allocation-free, one step per
    bit up to [v]'s highest selected bit. *)
val apply : t -> Bitvec.t -> Bitvec.t

(** [mul a b] is the matrix product [a b]; requires [cols a = rows b]. *)
val mul : t -> t -> t

(** [transpose m]; raises [Invalid_argument] when [cols m] exceeds
    {!Bitvec.max_bits}, since the columns become rows. *)
val transpose : t -> t

(** [block_diag a b] is [[a 0; 0 b]], the matrix of the product layout
    (Definition 4.3 of the paper).  Raises [Invalid_argument], as {!make}
    does, when [rows a + rows b] exceeds {!Bitvec.max_bits}. *)
val block_diag : t -> t -> t

(** [divide_left m a] is the unique [b] with [m = block_diag a b] if [m]
    has that block structure (Definition 4.4), and [None] otherwise. *)
val divide_left : t -> t -> t option

val rank : t -> int
val is_surjective : t -> bool
val is_injective : t -> bool
val is_invertible : t -> bool
val is_identity : t -> bool

(** [is_permutation m] holds when every column has {e at most} one set
    bit and no two non-zero columns coincide — the shape of a
    distributed layout matrix (Definition 4.10).  Zero columns are
    accepted by design: they are the broadcasting inputs of a
    distributed layout (a lane or warp bit that owns no element maps
    everything to index 0), so e.g. the matrix of [Layout.zeros1d]
    passes.  Callers that need every column non-zero must additionally
    check {!is_injective}. *)
val is_permutation : t -> bool

(** The result of one Gaussian elimination: an MSB-indexed pivot table
    with combination tracking.  Computing it once and solving many
    right-hand sides against it costs one elimination total instead of
    one per side — the pattern {!right_inverse} uses internally and
    callers with batches of right-hand sides should use too, via
    {!solve_with}. *)
type echelon

(** [factorize m] runs Gaussian elimination over [m]'s columns, left to
    right, reducing each against the pivots found so far.  Raises
    [Invalid_argument] when [cols m] exceeds {!Bitvec.max_bits}: the
    combination of original columns behind each pivot is tracked in one
    word. *)
val factorize : t -> echelon

val echelon_rank : echelon -> int

(** The columns that became pivots, as a bitmask: bit [j] is set iff
    column [j] is independent of the columns before it. *)
val pivot_columns : echelon -> int

(** Predicate variants on an existing factorization — callers that
    already hold an [echelon] must not pay a fresh elimination per
    predicate (as [is_surjective]/[is_injective]/[is_invertible] each
    do). *)

val is_surjective_with : echelon -> bool

val is_injective_with : echelon -> bool
val is_invertible_with : echelon -> bool

(** The pivots as [(value, combination)] pairs in increasing
    most-significant-bit order — exposed for differential tests and
    introspection. *)
val echelon_pivots : echelon -> (Bitvec.t * Bitvec.t) list

(** [reduce pivots v] is the reduction {!factorize} runs on each
    column, without combination tracking: while slot [msb v] of the
    pivot table [pivots] holds a vector, XOR it into [v].  Slot [k] of
    a pivot table is 0 or a vector whose most significant bit is [k];
    the table must have [Sys.int_size] slots, one per bit of an [int]
    ([Invalid_argument] otherwise).  The result is 0 iff [v] lies in
    the span of the table.  {!Subspace} builds its bases on it. *)
val reduce : int array -> Bitvec.t -> Bitvec.t

(** [solve_with ech b] solves against a precomputed factorization, with
    the same zero-free-variable convention as {!solve}. *)
val solve_with : echelon -> Bitvec.t -> Bitvec.t option

(** [solve m b] finds [x] with [m x = b], setting all free variables to
    zero so the solution has minimal support among the coset of solutions
    built from pivot columns. [None] if [b] is outside the image. *)
val solve : t -> Bitvec.t -> Bitvec.t option

(** [right_inverse m] is the least-squares right inverse of Definition 4.5:
    a [cols m x rows m] matrix [x] with [m x = identity (rows m)], computed
    with zero free variables. Requires [m] surjective. *)
val right_inverse : t -> t

(** [right_inverse_with ech] as {!right_inverse}, against an existing
    factorization — one elimination serves the surjectivity check and
    every unit-vector solve. *)
val right_inverse_with : echelon -> t

(** [inverse m] for square invertible [m]. Raises [Invalid_argument]
    otherwise. *)
val inverse : t -> t

(** [inverse_with ech] as {!inverse}, against an existing factorization. *)
val inverse_with : echelon -> t

(** Basis of the kernel (null space) of the map. *)
val kernel : t -> Bitvec.t list

(** [kernel_with ech] as {!kernel}, against an existing factorization. *)
val kernel_with : echelon -> Bitvec.t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
