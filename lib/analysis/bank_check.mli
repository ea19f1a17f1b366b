(** Bank-conflict certification of shared-memory plans.

    The planner {e predicts} wavefronts algebraically (Lemma 9.4:
    [n * 2^dim(span(V u S) n span(bank-reduced thread columns))]);
    {!Codegen.Swizzle_opt.wavefronts} {e measures} them exactly, by the
    rank rule of {!Gpusim.Banks.linear_wavefronts}.  The certifier
    proves the plan's bound by recomputing both sides:

    - [LL301] (error): prediction and simulation disagree — by
      construction this is a bug in the planner or the analyzer, not in
      the plan, and must never be shipped;
    - [LL302] (warning): the bound is certified but worse than the
      conflict-free minimum (one wavefront per 128-byte phase) — the
      swizzle is provably as good as its basis allows, yet the
      conversion pays real bank conflicts;
    - [LL303] (error): an operand-staging memory layout fails the
      memory characterization (Definition 4.14);
    - [LL304] (error): a swizzle memory layout fails the memory
      characterization or vectorized registers are not contiguous in
      it. *)

open Linear_layout

(** Certify one optimal-swizzle plan for the given distributed
    endpoints.  [src] stores, [dst] loads. *)
val swizzle :
  Gpusim.Machine.t ->
  src:Layout.t ->
  dst:Layout.t ->
  byte_width:int ->
  Codegen.Swizzle_opt.t ->
  Diagnostics.t list

(** Certify an operand-staging plan (Definition 4.11 swizzles). *)
val staging : Gpusim.Machine.t -> Codegen.Operand_staging.t -> Diagnostics.t list

(** Certify whatever shared-memory plan a conversion carries;
    mechanisms that never touch shared memory yield no diagnostics. *)
val conversion : Gpusim.Machine.t -> Codegen.Conversion.plan -> Diagnostics.t list
