(** Generic lowering of matrix-multiplication intrinsics over layouts
    (the appendix's Proposition 9.2 construction, executed).

    A warp-level tensor-core instruction can only read fragments the
    warp itself holds, so a valid (output, lhs, rhs) layout triple must
    satisfy: every warp that owns an output element [(i, j)] also owns
    [lhs(i, k)] and [rhs(k, j)] for every [k] — this is exactly the
    broadcast-along-the-inner-dimension condition of the operand
    construction.  [check_ownership] decides it by rank, without
    visiting a hardware point, and [execute_dot] computes the product
    once it holds, so a passing run certifies the layouts. *)

open Linear_layout

type violation = { warp : int; missing : string }

(** [check_ownership ~out ~lhs ~rhs] verifies the warp-ownership
    condition for an [m x k] by [k x n] product.

    Warp [w]'s outputs are the coset [O_warp w + span(O_reg, O_lane)],
    and both the coordinates it needs and the operand coset it holds
    are linear in [w].  So the condition is a handful of F2 span tests
    (docs/THEORY.md, "Warp ownership by rank"): the output's thread
    columns projected to the operand's row (lhs) or column (rhs), and
    the operand's k unit vectors, lie in the span of its register and
    lane columns; and so does, for each warp basis bit, the projected
    output warp column plus the operand's warp column.

    On failure the violation names a warp and an operand coordinate,
    formatted [lhs(i,k)] or [rhs(k,j)], that the warp lacks although
    it owns an output element that needs it.

    Raises [Invalid_argument] when a layout is not 2-D, the shapes
    disagree, or the three warp counts differ.  Only warp counts are
    compared: lane and register counts may differ between the three. *)
val check_ownership : out:Layout.t -> lhs:Layout.t -> rhs:Layout.t -> (unit, violation) result

(** [execute_dot ~out a b ~mul ~add ~zero] computes the dot product
    into the output layout.  It first checks ownership
    ([Failure "Mma_lower: warp %d is missing lhs(i,k)"] or
    [rhs(k,j)]), then reads each operand's values with
    {!Gpusim.Dist.to_logical}, which raises [Failure] when two copies
    of an element disagree, within one warp or across warps, or when an
    operand does not cover its tensor (impossible once ownership holds
    for a surjective output).  Every caller builds its operands with
    {!Gpusim.Dist.init} (directly or through the interpreter), whose
    copies agree by construction. *)
val execute_dot :
  out:Layout.t ->
  Gpusim.Dist.t ->
  Gpusim.Dist.t ->
  mul:(int -> int -> int) ->
  add:(int -> int -> int) ->
  zero:int ->
  Gpusim.Dist.t
