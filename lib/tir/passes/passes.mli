(** The pass registry: every engine pass, the default pipeline
    {!Engine.run} executes, and name-based lookup for the CLI.  Checks
    are not passes: they observe the state through {!Pass_manager}'s
    hooks ({!Certify}, {!Validate.lint_hook}) or run on the result
    ({!Validate.analyze}). *)

val anchor : Pass.t
val forward_propagate : Pass.t
val simplify : Pass.t
val backward_remat : Pass.t
val insert_conversions : Pass.t
val lower : Pass.t

(** The behaviour-preserving engine pipeline, in execution order:
    [anchor; forward_propagate; simplify; backward_remat;
    insert_conversions; lower]. *)
val default : Pass.t list

val name : Pass.t -> string
val description : Pass.t -> string

(** Look up a pass of {!default} by name. *)
val find : string -> Pass.t option
