(** Shared machinery for constructing distributed layouts by tiling
    hardware levels over a logical shape, as in the proofs of
    Propositions 9.1 and 9.2. *)

(** [id bits ~in_dim d] is the identity from [in_dim] onto logical
    dimension [d] ([Dims.dim d]). *)
val id : int -> in_dim:string -> int -> Layout.t

(** [cover ~base ~levels ~shape_bits ~order] extends [base] by
    allocating, for each [(hw_dim, bits_per_logical_dim)] level in turn
    and for each logical dimension in [order] (fastest first), identity
    basis vectors onto the next unused bits of that dimension.  Bits
    requested beyond the dimension's size become zero (broadcast)
    columns.  After all levels, any logical bits still uncovered are
    wrapped into extra {!Dims.register} basis vectors, again following
    [order], so the result is always surjective onto the full shape.

    Cost: one {!Layout.make} for all new columns and at most one
    {!Layout.mul} with [base], however many levels and dimensions. *)
val cover :
  base:Layout.t ->
  levels:(string * int array) list ->
  shape_bits:int array ->
  order:int array ->
  Layout.t
