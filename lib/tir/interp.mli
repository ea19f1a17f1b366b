(** Functional evaluation of programs — the end-to-end correctness
    harness.

    Two evaluators share one operator semantics:

    - {!reference}: plain tensor evaluation, no layouts anywhere;
    - {!through_layouts}: the engine assigns layouts first, then every
      intermediate value is round-tripped through its layout (which
      verifies that all broadcast copies agree and the layout covers
      the tensor), matrix multiplications execute through the output
      layout ({!Codegen.Mma_lower.execute_dot}) whenever the warp
      ownership condition of Proposition 9.2, decided by rank, holds,
      and gathers run through the layout-aware executor.

    The two must agree exactly on every program; `test_interp.ml`
    checks this for the whole kernel suite. *)

type outputs = (Program.id * Tensor_lib.Tensor.t) list
(** One entry per [Store], in program order. *)

(** [reference prog ~inputs] evaluates with plain tensor semantics;
    [inputs] maps load names to tensors (shape and dtype must match the
    load). *)
val reference : Program.t -> inputs:(string * Tensor_lib.Tensor.t) list -> outputs

(** [through_layouts machine prog ~inputs] evaluates through the
    layouts the linear engine assigns. Raises [Failure] when a layout
    is inconsistent (disagreeing broadcast copies, non-surjective
    coverage, or violated mma warp ownership). *)
val through_layouts :
  Gpusim.Machine.t ->
  ?num_warps:int ->
  Program.t ->
  inputs:(string * Tensor_lib.Tensor.t) list ->
  outputs

(** Deterministic pseudo-random inputs for a program's loads. *)
val synth_inputs : Program.t -> (string * Tensor_lib.Tensor.t) list
