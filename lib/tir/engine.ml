(* The engine is a pass pipeline (see Pass, Passes, Pass_manager); this
   module is the stable entry point, re-exporting the pipeline's types
   so call sites predating the split compile unchanged. *)

type mode = Pass.mode = Linear | Legacy_mode

type conversion_info = Pass.conversion_info = {
  at : Program.id;
  mechanism : string;
  conv_cost : Gpusim.Cost.t;
  plan : Codegen.Conversion.plan option;
}

type result = Pass.result = {
  cost : Gpusim.Cost.t;
  conversions : conversion_info list;
  converts : int;
  noop_converts : int;
  local_loads : int;
  local_stores : int;
  remats : int;
  unsupported : string list;
}

let time machine r = Gpusim.Cost.estimate machine r.cost

type strategy = Greedy | Search of Assign_search.params

let pipeline = Pass_manager.exec (Pass_manager.config Passes.default)

let run machine ~mode ?num_warps ?(strategy = Greedy) prog =
  match strategy with
  | Greedy ->
      let st = Pass.init machine ~mode ?num_warps prog in
      pipeline st;
      Pass.result st
  | Search params ->
      (Assign_search.run machine ~mode ?num_warps ~params prog)
        .Assign_search.result
