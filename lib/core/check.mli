(** Layout validation with human-readable diagnostics.

    [Layout.is_distributed] and friends answer yes/no; this module
    explains {e why} a layout fails a family's characterization —
    the kind of error message a compiler built on linear layouts owes
    its users (Section 3's robustness claim).

    Issues are {!Diagnostics.t} values with [LL1xx] codes:
    - [LL101] not surjective, [LL102] multi-bit column, [LL103]
      duplicated column, [LL104] broadcast (zero) column — the
      distributed characterization of Definition 4.10;
    - [LL110] non-square, [LL111] non-invertible, [LL112] zero offset
      column, [LL113] column beyond the xor-swizzle family — the memory
      characterization of Definition 4.14;
    - [LL120]–[LL122] convertibility within a CTA. *)

(** Check the distributed-layout characterization (Definition 4.10):
    surjective, every column at most one set bit, no repeated non-zero
    columns.  Warnings flag zero (broadcast) columns, which are legal
    but often unintended. *)
val distributed : Layout.t -> Diagnostics.t list

(** Check the memory-layout characterization (Definition 4.14):
    invertible, columns with 1 or 2 set bits. *)
val memory : Layout.t -> Diagnostics.t list

(** Check that two distributed layouts can be converted into each other
    within a CTA: same logical space, same lane/warp footprint. *)
val convertible : src:Layout.t -> dst:Layout.t -> Diagnostics.t list
