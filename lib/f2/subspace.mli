(** Subspaces of [F2^d] given by generating sets of bit-vectors.

    These are the set-level operations of Section 5.4 of the paper:
    spans, basis extension and completion, and intersections, used by
    the warp-shuffle planner and the optimal-swizzling search.  They
    eliminate with {!Bitmatrix.reduce}, the reduction of
    {!Bitmatrix.factorize}, once per call. *)

(** [echelon_basis vs] is a basis of [span vs] in column-echelon form:
    independent vectors with strictly decreasing most-significant bits. *)
val echelon_basis : Bitvec.t list -> Bitvec.t list

(** Dimension of the span. *)
val dim : Bitvec.t list -> int

val mem : Bitvec.t list -> Bitvec.t -> bool

(** [independent_from basis v] holds iff adding [v] increases the span. *)
val independent_from : Bitvec.t list -> Bitvec.t -> bool

(** [extend basis candidates] is the candidates, in order, that each
    enlarge the span of [basis] and of the candidates kept before
    them. *)
val extend : Bitvec.t list -> Bitvec.t list -> Bitvec.t list

(** [complete_basis ~dim basis] returns vectors [r_1 ... r_k], drawn from
    the canonical basis, such that [basis @ [r_1; ...; r_k]] spans
    [F2^dim]: {!extend} over [e_0 ... e_(dim-1)]. This is the extension
    [R] of Section 5.4; its span is a complement of [span basis] when
    [basis] lies in [F2^dim]. *)
val complete_basis : dim:int -> Bitvec.t list -> Bitvec.t list

(** [intersection a b] is a basis of the intersection of the two spans
    (Zassenhaus
    algorithm). Requires the ambient dimension to satisfy [2*dim <= 62]. *)
val intersection : Bitvec.t list -> Bitvec.t list -> Bitvec.t list

(** All [2^k] elements of the span of a [k]-element independent set,
    indexed by the characteristic vector of the chosen combination:
    element [i] XORs together the basis vectors selected by the bits
    of [i].  Each element is filled from the one without its lowest
    set bit, one XOR apiece.  Because the order depends only on [i],
    a linear map [f] commutes with it: [span_elements (List.map f b)]
    is [Array.map f (span_elements b)]. *)
val span_elements : Bitvec.t list -> Bitvec.t array

(** [equal_span a b] holds iff the two generating sets span the same
    subspace. *)
val equal_span : Bitvec.t list -> Bitvec.t list -> bool
