(** Cost-model-driven configuration search — the "holistic performance
    model for autotuning" the paper names as future work, over the knobs
    our engine exposes. *)

type config = { num_warps : int }

val default_configs : config list

(** [best machine ~mode ~build ~size] runs the layout engine under each
    configuration and returns the one whose result the planners' cost
    model ({!Engine.time}) prices cheapest, with its result.

    [domains] (default 1) evaluates configurations on that many OCaml 5
    domains through {!Par_eval.map}.  Configurations are assigned
    round-robin by index and the results merged in index order with a
    strict comparison, so the returned configuration and cost are
    identical for any domain count; each domain owns private
    layout/plan caches (see {!Linear_layout.Layout.Memo} and
    {!Codegen.Plan_cache}).  [strategy] selects the layout-assignment
    strategy each candidate runs under (default [Engine.Greedy]). *)
val best :
  ?domains:int ->
  ?strategy:Engine.strategy ->
  Gpusim.Machine.t ->
  mode:Engine.mode ->
  build:(size:int -> Program.t) ->
  size:int ->
  config * Engine.result

(** Speedup of the tuned configuration over the 4-warp default. *)
val tuning_gain :
  Gpusim.Machine.t -> mode:Engine.mode -> build:(size:int -> Program.t) -> size:int -> float
